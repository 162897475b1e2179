package flow

import (
	"fmt"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
)

// SourceSpec declares one job input.
type SourceSpec struct {
	// Name identifies the source in metrics and checkpoints.
	Name string
	// Source supplies the events.
	Source Source
	// WatermarkEvery emits a watermark after every N polled events (and
	// after every poll that left the source drained). Default 64.
	WatermarkEvery int
}

// StageSpec declares one operator stage.
type StageSpec struct {
	// Name identifies the stage in metrics and checkpoints.
	Name string
	// Parallelism is the instance count; default 1.
	Parallelism int
	// KeyBy routes input events by this row field (hash partitioning),
	// or by the key they carry when it is KeyByEventKey. Empty means
	// round-robin rebalance.
	KeyBy string
	// KeyBySource overrides KeyBy per source index — stream-stream joins
	// key each side by its own column.
	KeyBySource map[int]string
	// New constructs one Operator per instance.
	New OperatorFactory
}

// KeyByEventKey, as a stage's KeyBy, routes each event by the Key the stage
// before set on it instead of by a payload field: how a key that no single
// field holds, such as a compiled multi-column GROUP BY, reaches a keyed
// stage without a map.
const KeyByEventKey = "__key"

func (s StageSpec) keyed() bool { return s.KeyBy != "" || len(s.KeyBySource) > 0 }

// route sets e's routing key for the keyed stage s: the key e carries, or
// the cell of the field s keys e's source by, spelled as record.Record's
// String spells the value — the spelling keys in earlier checkpoints have.
// A string cell's key is interned in keys.
func (s StageSpec) route(e Event, keys keyTable) Event {
	field := s.keyField(e.Source)
	if field == KeyByEventKey {
		return e
	}
	e.Key = ""
	if at := e.Row.Schema.FieldIndex(field); at >= 0 && !e.Row.Vals[at].Null {
		if t := e.Row.Schema.Fields[at].Type; t == metadata.TypeString {
			e.Key = keys.intern(e.Row.Vals[at].B)
		} else {
			e.Key = fmt.Sprint(e.Row.Vals[at].Box(t))
		}
	}
	return e
}

// maxKeys bounds one sender's interned routing keys; past it the table
// starts over, as flinksql's GROUP BY key stage does, so a key space without
// bound costs allocations, not memory.
const maxKeys = 1 << 12

// keyTable interns the routing keys one sender spells: a key seen before
// costs no allocation.
type keyTable map[string]string

func (t keyTable) intern(b []byte) string {
	if k, ok := t[string(b)]; ok {
		return k
	}
	if len(t) >= maxKeys {
		clear(t)
	}
	k := string(b)
	t[k] = k
	return k
}

func (s StageSpec) keyField(source int) string {
	if f, ok := s.KeyBySource[source]; ok {
		return f
	}
	return s.KeyBy
}

// SinkSpec declares the job output.
type SinkSpec struct {
	// Name identifies the sink in metrics.
	Name string
	// Sink receives the output events.
	Sink Sink
}

// JobSpec is a complete dataflow definition: sources → stages → sink.
type JobSpec struct {
	// Name identifies the job (checkpoint key prefix, job manager handle).
	Name string
	// Sources are the inputs; joins use two.
	Sources []SourceSpec
	// Stages run in order between sources and sink.
	Stages []StageSpec
	// Sink is the single output.
	Sink SinkSpec
	// BufferSize is the most events one run carries across an edge between
	// instances. Each edge owns a few run buffers (its credits), so it also
	// bounds what an edge holds in flight — the backpressure knob: small
	// buffers propagate consumer slowness upstream quickly. Default 64.
	BufferSize int
	// CheckpointStore enables checkpointing when set.
	CheckpointStore objstore.Store
	// CheckpointInterval enables automatic periodic checkpoints; zero means
	// manual TriggerCheckpoint only.
	CheckpointInterval time.Duration
	// KeepCheckpoints bounds retained checkpoints. Default 3.
	KeepCheckpoints int
}

// Validate checks the spec's structural invariants and applies defaults.
func (s *JobSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("flow: job has no name")
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("flow: job %q has no sources", s.Name)
	}
	for i, src := range s.Sources {
		if src.Source == nil {
			return fmt.Errorf("flow: job %q source %d is nil", s.Name, i)
		}
		if src.Name == "" {
			s.Sources[i].Name = fmt.Sprintf("source-%d", i)
		}
		if src.WatermarkEvery <= 0 {
			s.Sources[i].WatermarkEvery = 64
		}
	}
	if len(s.Stages) == 0 {
		return fmt.Errorf("flow: job %q has no stages", s.Name)
	}
	for i := range s.Stages {
		st := &s.Stages[i]
		if st.New == nil {
			return fmt.Errorf("flow: job %q stage %d has no operator factory", s.Name, i)
		}
		if st.Name == "" {
			st.Name = fmt.Sprintf("stage-%d", i)
		}
		if st.Parallelism <= 0 {
			st.Parallelism = 1
		}
	}
	if s.Sink.Sink == nil {
		return fmt.Errorf("flow: job %q has no sink", s.Name)
	}
	if s.Sink.Name == "" {
		s.Sink.Name = "sink"
	}
	if s.BufferSize <= 0 {
		s.BufferSize = 64
	}
	if s.KeepCheckpoints <= 0 {
		s.KeepCheckpoints = 3
	}
	// Every source feeds stage 0: a keyed stage 0 must know how to key each.
	if st := s.Stages[0]; st.keyed() {
		for i := range s.Sources {
			if st.keyField(i) == "" {
				return fmt.Errorf("flow: job %q stage %q keyed but source %d has no key field", s.Name, st.Name, i)
			}
		}
	}
	return nil
}
