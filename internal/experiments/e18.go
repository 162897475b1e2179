package experiments

import (
	"context"
	"fmt"

	"repro/internal/fedsql"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
)

// ---- E18: partition-aware and replica-group routing (§4.3, §4.5) ----

// e18Cities returns one city name per partition (cities[p] hashes to
// partition p under the deployment's canonical partition function), found by
// probing — so the partition-filtered query's pruning ratio is exact.
func e18Cities(partitions int) []string {
	cities := make([]string, partitions)
	found := 0
	for i := 0; found < partitions; i++ {
		name := fmt.Sprintf("city-%03d", i)
		if p := olap.PartitionFor(name, partitions); cities[p] == "" {
			cities[p] = name
			found++
		}
	}
	return cities
}

// e18Deployment builds the E18 fixture: 4 servers, 2 replicas per segment,
// a declared city-hash partition function, rowsN rows sealed into several
// segments per partition.
func e18Deployment(rowsN int) (*olap.Deployment, []string) {
	const partitions = 4
	cities := e18Cities(partitions)
	servers := make([]*olap.Server, partitions)
	for i := range servers {
		servers[i] = olap.NewServer(fmt.Sprintf("s%d", i))
	}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:            "orders",
			Schema:          ordersSchema(),
			SegmentRows:     rowsN / 24, // ~6 sealed segments per partition
			Indexes:         olap.IndexConfig{InvertedColumns: []string{"city", "status"}},
			Replicas:        2,
			PartitionColumn: "city",
			Partitions:      partitions,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		panic(err)
	}
	statuses := []string{"placed", "cooking", "delivered", "cancelled"}
	for i := 0; i < rowsN; i++ {
		city := cities[i%partitions]
		r := record.Record{
			"order_id": fmt.Sprintf("o%07d", i),
			"city":     city,
			"status":   statuses[(i/3)%len(statuses)],
			"amount":   float64(i%200) / 2,
			"ts":       int64(1700000000000 + i*500),
		}
		if err := d.Ingest(olap.PartitionFor(city, partitions), r); err != nil {
			panic(err)
		}
	}
	for p := 0; p < partitions; p++ {
		if err := d.Seal(p); err != nil {
			panic(err)
		}
	}
	d.WaitUploads()
	return d, cities
}

// E18 measures partition-aware and replica-group routing on the federated
// aggregate (E11 measures its pushdown against the pull-rows baseline):
//
//   - partition-aware routing: the WHERE city = ... equality filter prunes
//     every other partition's server before any scan, so ServersContacted
//     stays below the server count;
//   - replica-group routing: the unfiltered GROUP BY contacts one replica
//     set (N/R servers) instead of every server.
func E18(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 60_000
	}
	d, cities := e18Deployment(rowsN)
	nServers := 4

	pinot := fedsql.NewPinotConnector("pinot")
	pinot.Router = &olap.PartitionRouter{}
	pinot.AddTable(d)
	e := fedsql.NewEngine()
	e.Register(pinot)

	res, err := e.Query(fmt.Sprintf(
		"SELECT city, SUM(amount) AS revenue, COUNT(*) AS n FROM pinot.orders WHERE city = '%s' GROUP BY city",
		cities[0]))
	if err != nil {
		panic(err)
	}

	// Replica-group routing on the unfiltered aggregate, straight through
	// the v2 broker surface.
	group := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Router: &olap.ReplicaGroupRouter{}})
	groupResp, err := group.Execute(context.Background(), &olap.QueryRequest{Query: &olap.Query{
		GroupBy: []string{"city"},
		Aggs:    []olap.AggSpec{{Kind: olap.AggSum, Column: "amount"}},
	}})
	if err != nil {
		panic(err)
	}

	return []Row{
		{"servers_total", float64(nServers), "servers"},
		{"partition_servers_contacted", float64(res.Stats.Exec.ServersContacted), "servers"},
		{"partitions_pruned", float64(res.Stats.Exec.PartitionsPruned), "parts"},
		{"replica_group_servers_contacted", float64(groupResp.Stats.ServersContacted), "servers"},
	}
}
