package stream

import "sync/atomic"

// ProducerTarget is the produce surface a Producer writes through. Both a
// physical *Cluster and a federation logical cluster satisfy it, so
// applications are oblivious to which one they talk to (§4.1.1).
type ProducerTarget interface {
	Produce(topic string, msgs []Message, rrHint int64) error
}

// Producer is the thin client applications use to publish events. It stamps
// the audit metadata of §9.4 (unique id, application timestamp, service
// name, tier) into the Message fields of every message — values, so
// stamping allocates nothing and never writes into a caller's Headers map —
// and implements round-robin spreading for unkeyed messages.
type Producer struct {
	target  ProducerTarget
	service string
	tier    string
	clock   Clock

	seq atomic.Int64
	rr  atomic.Int64
}

// NewProducer creates a producer identified as the given service. The tier
// tags the producing deployment tier (used by audit tooling); pass "" for
// the default "prod".
func NewProducer(target ProducerTarget, service, tier string, clock Clock) *Producer {
	if tier == "" {
		tier = "prod"
	}
	if clock == nil {
		clock = SystemClock
	}
	return &Producer{target: target, service: service, tier: tier, clock: clock}
}

// Produce publishes one message and returns after it is acknowledged per the
// topic's AckMode.
func (p *Producer) Produce(topic string, key, value []byte) error {
	return p.ProduceBatch(topic, []Message{{Key: key, Value: value}})
}

// ProduceBatch publishes a batch of messages, stamping the audit fields on
// each (overwriting any a re-published message carried).
func (p *Producer) ProduceBatch(topic string, msgs []Message) error {
	now := p.clock().UnixMilli()
	seq := p.seq.Add(int64(len(msgs))) - int64(len(msgs))
	for i := range msgs {
		m := &msgs[i]
		seq++
		m.Service, m.Tier, m.Seq, m.AppTime = p.service, p.tier, seq, now
		if m.Timestamp == 0 {
			m.Timestamp = now
		}
	}
	return p.target.Produce(topic, msgs, p.rr.Add(int64(len(msgs))))
}
