// Package core is the unified real-time data platform of the paper: it
// wires the abstraction stack of Fig 2 — Storage (objstore), Stream
// (federated brokers), Compute (flow + job manager), OLAP (Pinot-like
// deployments), SQL (FlinkSQL + federated engine), API (this package) and
// Metadata (schema registry) — into the single self-serve surface the use
// cases of §5 build on.
//
// The platform also records which layers each named use case touches,
// reproducing Table 1's component matrix.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fedsql"
	"repro/internal/flinksql"
	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/stream/federation"
)

// Layer names one level of the Fig 2 abstraction stack.
type Layer string

// The seven layers of Fig 2.
const (
	LayerAPI      Layer = "API"
	LayerSQL      Layer = "SQL"
	LayerOLAP     Layer = "OLAP"
	LayerCompute  Layer = "Compute"
	LayerStream   Layer = "Stream"
	LayerStorage  Layer = "Storage"
	LayerMetadata Layer = "Metadata"
)

// Config assembles a platform.
type Config struct {
	// Clusters are the physical broker clusters behind the logical stream
	// layer; at least one.
	Clusters []*stream.Cluster
	// Storage is the archival / checkpoint / segment store.
	Storage objstore.Store
	// OLAPServers host OLAP segments; default 2.
	OLAPServers int
}

// Platform is the assembled stack.
type Platform struct {
	Registry *metadata.Registry
	Storage  objstore.Store
	Streams  *federation.Federation
	Jobs     *flow.JobManager
	SQL      *fedsql.Engine

	pinot   *fedsql.PinotConnector
	archive *fedsql.ArchiveConnector
	servers []*olap.Server

	mu          sync.Mutex
	codecs      map[string]*record.Codec
	deployments map[string]*olap.Deployment
	ingesters   map[string]*olap.RealtimeIngester
	compactors  map[string]*objstore.Compactor
	usage       map[string]map[Layer]bool
}

// NewPlatform assembles the stack.
func NewPlatform(cfg Config) (*Platform, error) {
	if len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("core: need at least one broker cluster")
	}
	if cfg.Storage == nil {
		cfg.Storage = objstore.NewMemStore()
	}
	if cfg.OLAPServers <= 0 {
		cfg.OLAPServers = 2
	}
	fed := federation.New()
	for _, c := range cfg.Clusters {
		if err := fed.AddCluster(c); err != nil {
			return nil, err
		}
	}
	p := &Platform{
		Registry:    metadata.NewRegistry(),
		Storage:     cfg.Storage,
		Streams:     fed,
		Jobs:        flow.NewJobManager(flow.ManagerConfig{}),
		SQL:         fedsql.NewEngine(),
		pinot:       fedsql.NewPinotConnector("pinot"),
		archive:     fedsql.NewArchiveConnector("hive", cfg.Storage),
		codecs:      make(map[string]*record.Codec),
		deployments: make(map[string]*olap.Deployment),
		ingesters:   make(map[string]*olap.RealtimeIngester),
		compactors:  make(map[string]*objstore.Compactor),
		usage:       make(map[string]map[Layer]bool),
	}
	for i := 0; i < cfg.OLAPServers; i++ {
		p.servers = append(p.servers, olap.NewServer(fmt.Sprintf("olap-%d", i)))
	}
	p.SQL.Register(p.pinot)
	p.SQL.Register(p.archive)
	return p, nil
}

// Close shuts down managed jobs and ingesters.
func (p *Platform) Close() {
	p.Jobs.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ing := range p.ingesters {
		ing.Stop()
	}
}

// touch records layer usage for a use case.
func (p *Platform) touch(useCase string, layers ...Layer) {
	if useCase == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.usage[useCase]
	if !ok {
		m = make(map[Layer]bool)
		p.usage[useCase] = m
	}
	for _, l := range layers {
		m[l] = true
	}
}

// ComponentMatrix returns Table 1: use case → layers touched.
func (p *Platform) ComponentMatrix() map[string][]Layer {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string][]Layer, len(p.usage))
	for uc, layers := range p.usage {
		var ls []Layer
		for l := range layers {
			ls = append(ls, l)
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		out[uc] = ls
	}
	return out
}

// CreateStream registers the schema and provisions a topic on the logical
// cluster (seamless onboarding, §9.4). It returns the schema-bound codec.
func (p *Platform) CreateStream(useCase string, schema *metadata.Schema, cfg stream.TopicConfig) (*record.Codec, error) {
	registered, err := p.Registry.Register(schema)
	if err != nil {
		return nil, err
	}
	if err := p.Streams.CreateTopic(schema.Name, cfg); err != nil {
		return nil, err
	}
	codec, err := record.NewCodec(registered)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.codecs[schema.Name] = codec
	p.mu.Unlock()
	p.touch(useCase, LayerStream, LayerMetadata)
	return codec, nil
}

// Codec returns the codec for a registered stream.
func (p *Platform) Codec(topic string) (*record.Codec, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.codecs[topic]
	if !ok {
		return nil, fmt.Errorf("core: stream %q not registered", topic)
	}
	return c, nil
}

// Producer returns a producer for the named service writing through the
// logical cluster.
func (p *Platform) Producer(useCase, service string) *stream.Producer {
	p.touch(useCase, LayerAPI, LayerStream)
	return stream.NewProducer(p.Streams, service, "", nil)
}

// ProduceRecords encodes and publishes records to a stream, keyed by the
// schema's primary key when present.
func (p *Platform) ProduceRecords(useCase, topic string, rows []record.Record) error {
	codec, err := p.Codec(topic)
	if err != nil {
		return err
	}
	pk := codec.Schema().PrimaryKey
	producer := p.Producer(useCase, useCase)
	msgs := make([]stream.Message, 0, len(rows))
	for _, r := range rows {
		payload, err := codec.Encode(r)
		if err != nil {
			return err
		}
		var key []byte
		if pk != "" {
			key = []byte(r.String(pk))
		}
		msgs = append(msgs, stream.Message{Key: key, Value: payload, Timestamp: r.Long(codec.Schema().TimeField)})
	}
	return producer.ProduceBatch(topic, msgs)
}

// DeployStreamingSQL compiles SQL and deploys it as a managed streaming job
// (FlinkSQL, §4.2.1). The FROM table must be a registered stream; output
// goes to sink.
func (p *Platform) DeployStreamingSQL(useCase, jobName, sql string, sink flow.Sink) error {
	p.touch(useCase, LayerSQL, LayerCompute, LayerStream, LayerStorage)
	return p.Jobs.Deploy(jobName, func(parallelism int) (*flow.Job, error) {
		table, err := flinksql.FromTable(sql)
		if err != nil {
			return nil, err
		}
		codec, err := p.Codec(table)
		if err != nil {
			return nil, err
		}
		cluster, err := p.Streams.Lookup(table)
		if err != nil {
			return nil, err
		}
		job, _, err := flinksql.StreamJob(jobName, sql, cluster, codec, sink, flinksql.StreamJobConfig{
			Parallelism:     parallelism,
			CheckpointStore: p.Storage,
		})
		return job, err
	})
}

// DeployJob deploys a hand-built dataflow job (the API path for advanced
// users, §4.2).
func (p *Platform) DeployJob(useCase, jobName string, factory flow.JobFactory) error {
	p.touch(useCase, LayerAPI, LayerCompute, LayerStream)
	return p.Jobs.Deploy(jobName, factory)
}

// CreateOLAPTable provisions an OLAP table fed from the given stream
// (schema inferred from the stream's registered schema, §4.3.3) and
// registers it with the federated SQL engine.
func (p *Platform) CreateOLAPTable(useCase string, table olap.TableConfig, fromTopic string, backup olap.BackupMode) (*olap.Deployment, error) {
	codec, err := p.Codec(fromTopic)
	if err != nil {
		return nil, err
	}
	if table.Schema == nil {
		// Schema inference from the input stream (§4.3.3).
		table.Schema = codec.Schema()
	}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        table,
		Servers:      p.servers,
		SegmentStore: p.Storage,
		Backup:       backup,
	})
	if err != nil {
		return nil, err
	}
	cluster, err := p.Streams.Lookup(fromTopic)
	if err != nil {
		return nil, err
	}
	ing, err := olap.NewRealtimeIngester(cluster, fromTopic, codec, d)
	if err != nil {
		return nil, err
	}
	ing.Start()
	p.mu.Lock()
	p.deployments[table.Name] = d
	p.ingesters[table.Name] = ing
	p.mu.Unlock()
	p.pinot.AddTable(d)
	p.Registry.AddLineage("stream:"+fromTopic, "pinot:"+table.Name, "realtime-ingest")
	p.touch(useCase, LayerOLAP, LayerStream, LayerMetadata)
	return d, nil
}

// EnableArchival starts raw-log archival + compaction for a stream,
// registering the archive as a Hive-like table (§4.4). It deploys a managed
// archiver job reading the topic and writing the rows of each sink write as
// one raw-log batch; Compact drains them into columnar parts.
func (p *Platform) EnableArchival(useCase, topic string) error {
	codec, err := p.Codec(topic)
	if err != nil {
		return err
	}
	w := objstore.NewRawLogWriter(p.Storage, topic, codec)
	comp := objstore.NewCompactor(p.Storage, topic, codec)
	p.mu.Lock()
	p.compactors[topic] = comp
	p.mu.Unlock()
	p.archive.AddTable(topic, codec.Schema())
	p.Registry.AddLineage("stream:"+topic, "hive:"+topic, "archiver")
	p.touch(useCase, LayerStorage, LayerStream)

	cluster, err := p.Streams.Lookup(topic)
	if err != nil {
		return err
	}
	return p.Jobs.Deploy("archiver-"+topic, func(parallelism int) (*flow.Job, error) {
		src, err := flow.NewStreamSource(cluster, topic, codec, flow.StreamSourceConfig{})
		if err != nil {
			return nil, err
		}
		return flow.NewJob(flow.JobSpec{
			Name:    "archiver-" + topic,
			Sources: []flow.SourceSpec{{Name: topic, Source: src}},
			Stages:  []flow.StageSpec{{Name: "identity", New: func() flow.Operator { return flow.PassOp{} }}},
			Sink:    flow.SinkSpec{Sink: rawLogSink{w}},
		})
	})
}

// rawLogSink archives the rows of each Write as one raw-log batch.
type rawLogSink struct{ *objstore.RawLogWriter }

func (s rawLogSink) Write(events []flow.Event) error {
	return s.AppendRows(len(events), func(i int) record.Row { return events[i].Row })
}

func (rawLogSink) Flush() error { return nil }

// Compact runs one compaction round for an archived stream.
func (p *Platform) Compact(topic string) (int, error) {
	p.mu.Lock()
	comp, ok := p.compactors[topic]
	p.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("core: archival not enabled for %q", topic)
	}
	return comp.Compact()
}

// Query executes federated SQL across Pinot and the archive (§4.5).
func (p *Platform) Query(useCase, sql string) (*fedsql.Result, error) {
	p.touch(useCase, LayerSQL, LayerOLAP)
	return p.SQL.Query(sql)
}

// WaitForOLAP blocks until the named table has ingested at least n rows or
// the timeout passes, returning the ingested count.
func (p *Platform) WaitForOLAP(table string, n int64, timeout time.Duration) int64 {
	p.mu.Lock()
	d, ok := p.deployments[table]
	p.mu.Unlock()
	if !ok {
		return 0
	}
	deadline := time.Now().Add(timeout)
	for {
		ingested, _, _ := d.Stats()
		if ingested >= n || time.Now().After(deadline) {
			return ingested
		}
		time.Sleep(2 * time.Millisecond)
	}
}
