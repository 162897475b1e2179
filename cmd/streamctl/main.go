// Command streamctl demonstrates administering a federated stream
// deployment: it builds a two-cluster federation, provisions topics until
// they spill to the second cluster, produces traffic, migrates a live topic
// between physical clusters while a consumer keeps reading, and prints the
// resulting cluster/topic/partition state — the §4.1.1 operations story.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/stream"
	"repro/internal/stream/federation"
)

func main() {
	fed := federation.New()
	fed.SetTopicQuota(func(nodes int) int { return 2 })
	c1, err := stream.NewCluster(stream.ClusterConfig{Name: "cluster-a", Nodes: 30})
	if err != nil {
		log.Fatal(err)
	}
	defer c1.Close()
	c2, err := stream.NewCluster(stream.ClusterConfig{Name: "cluster-b", Nodes: 30})
	if err != nil {
		log.Fatal(err)
	}
	defer c2.Close()
	fed.AddCluster(c1)
	fed.AddCluster(c2)

	for _, t := range []string{"rider-events", "driver-events", "eats-orders"} {
		if err := fed.CreateTopic(t, stream.TopicConfig{Partitions: 4}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("topic placement after quota spill (quota = 2 topics/cluster):")
	for _, t := range fed.Topics() {
		c, _ := fed.Lookup(t)
		fmt.Printf("  %-14s -> %s\n", t, c.Name())
	}

	// Live traffic + consumer on rider-events.
	p := stream.NewProducer(fed, "rider-app", "", nil)
	for i := 0; i < 500; i++ {
		if err := p.Produce("rider-events", nil, []byte(fmt.Sprintf("e%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	consumer, err := fed.NewConsumer("dashboard", "rider-events")
	if err != nil {
		log.Fatal(err)
	}
	defer consumer.Close()
	seen := 0
	for seen < 200 {
		seen += len(consumer.Poll(time.Second, 50))
	}
	fmt.Printf("\nconsumer read %d messages from cluster-a\n", seen)

	// Migrate the live topic; the consumer follows without restart.
	fmt.Println("migrating rider-events -> cluster-b (consumer stays up)")
	if err := fed.MigrateTopic("rider-events", "cluster-b"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := p.Produce("rider-events", nil, []byte(fmt.Sprintf("post-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for seen < 800 && time.Now().Before(deadline) {
		seen += len(consumer.Poll(300*time.Millisecond, 50))
	}
	fmt.Printf("consumer total after migration: %d/800 (drained old cluster, redirected)\n", seen)

	fmt.Println("\ncluster-b partition state for rider-events:")
	for _, st := range c2.PartitionStats() {
		if st["topic"] == "rider-events" {
			fmt.Printf("  partition %v: high=%v bytes=%v resident_bytes=%v leader=node-%v\n",
				st["partition"], st["high"], st["bytes"], st["resident_bytes"], st["leader"])
		}
	}
}
