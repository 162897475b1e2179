package stream

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// testPartition is a bare partition under a fixed clock, for tests that
// drive append, replication, truncation and retention step by step.
func testPartition(t testing.TB, cfg TopicConfig) *partition {
	t.Helper()
	cfg.Partitions = 1
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return newPartition("t", 3, cfg, func() time.Time { return time.UnixMilli(testNow) })
}

const testNow = 1_700_000_000_000

// allOf picks every message of a batch, in order.
func allOf(msgs []Message) []int32 {
	picks := make([]int32, len(msgs))
	for i := range picks {
		picks[i] = int32(i)
	}
	return picks
}

func appendAll(t testing.TB, p *partition, msgs []Message) {
	t.Helper()
	if err := p.append(msgs, allOf(msgs)); err != nil {
		t.Fatal(err)
	}
}

func fetchAll(t testing.TB, p *partition) []Message {
	t.Helper()
	low, _ := p.watermarks()
	msgs, err := p.fetch(nil, low, 0)
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}

// asFetched is what the log returns for m appended at offset: located,
// stamped, and with empty fields nil.
func asFetched(m Message, p *partition, offset int64) Message {
	m.Topic, m.Partition, m.Offset = p.topic, p.index, offset
	if m.Timestamp == 0 {
		m.Timestamp = testNow
	}
	if len(m.Key) == 0 {
		m.Key = nil
	}
	if len(m.Value) == 0 {
		m.Value = nil
	}
	if len(m.Headers) == 0 {
		m.Headers = nil
	}
	return m
}

func sameMessage(a, b Message) bool {
	return a.Topic == b.Topic && a.Partition == b.Partition && a.Offset == b.Offset &&
		(a.Key == nil) == (b.Key == nil) && bytes.Equal(a.Key, b.Key) &&
		(a.Value == nil) == (b.Value == nil) && bytes.Equal(a.Value, b.Value) &&
		a.Timestamp == b.Timestamp && a.Service == b.Service && a.Tier == b.Tier &&
		a.Seq == b.Seq && a.AppTime == b.AppTime &&
		(a.Headers == nil) == (b.Headers == nil) && maps.Equal(a.Headers, b.Headers)
}

// deepCopy shares nothing with m.
func deepCopy(m Message) Message {
	m.Key, m.Value, m.Headers = bytes.Clone(m.Key), bytes.Clone(m.Value), maps.Clone(m.Headers)
	return m
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randomMessage(rng *rand.Rand) Message {
	sizes := []int{0, 0, 1, 7, 46, 130, 300, 5000}
	ints := []int64{0, 0, 1, -1, 63, 64, -65, 123456, testNow, math.MaxInt64, math.MinInt64}
	audits := []audit{{}, {"bench-producer", "prod"}, {"bench-producer", "staging"}, {"svc", "prod"}, {"svc", ""}}
	m := Message{
		Key:       randomBytes(rng, sizes[rng.Intn(len(sizes))]),
		Value:     randomBytes(rng, sizes[rng.Intn(len(sizes))]),
		Timestamp: ints[rng.Intn(len(ints))],
		Seq:       ints[rng.Intn(len(ints))],
		AppTime:   ints[rng.Intn(len(ints))],
	}
	if rng.Intn(4) == 0 {
		m.Key = nil
	}
	a := audits[rng.Intn(len(audits))]
	m.Service, m.Tier = a.service, a.tier
	switch rng.Intn(4) {
	case 0:
		m.Headers = map[string]string{}
	case 1:
		m.Headers = map[string]string{HeaderRetryCount: "3"}
	case 2:
		m.Headers = map[string]string{}
		for i := rng.Intn(6); i >= 0; i-- {
			m.Headers[fmt.Sprintf("h%d", i)] = string(randomBytes(rng, sizes[rng.Intn(len(sizes)-1)]))
		}
		m.Headers[""] = ""
	}
	return m
}

// checkLayout holds every segment to what the layout promises: a record
// takes no more than it was charged, the slab stays under the roll size plus
// one record, and a rolled segment's slab and index have at most a
// sixteenth of their capacity spare — the headroom newSegment sizes them
// with, kept in place, and no more.
func checkLayout(t *testing.T, p *partition) {
	t.Helper()
	for i, s := range p.segments {
		if int64(len(s.data)) > s.bytes {
			t.Errorf("segment %d holds %d bytes, more than the %d it was charged", i, len(s.data), s.bytes)
		}
		spare := func(n, c int) bool { return 16*(c-n) > c }
		if rolled := i < len(p.segments)-1; rolled && (spare(len(s.data), cap(s.data)) || spare(len(s.ends), cap(s.ends))) {
			t.Errorf("rolled segment %d: slab %d of %d, index %d of %d", i, len(s.data), cap(s.data), len(s.ends), cap(s.ends))
		}
	}
}

// Whatever goes in comes back field for field — across segment rolls (small
// segments), across the slab's doublings (large ones), from any offset and
// for any fetch size.
func TestSegmentRoundTrip(t *testing.T) {
	for _, segBytes := range []int64{600, 20_000, DefaultSegmentBytes} {
		rng := rand.New(rand.NewSource(segBytes))
		p := testPartition(t, TopicConfig{SegmentBytes: segBytes})
		var want []Message
		for len(want) < 1500 {
			batch := make([]Message, 1+rng.Intn(200))
			for i := range batch {
				batch[i] = randomMessage(rng)
				want = append(want, asFetched(deepCopy(batch[i]), p, int64(len(want))))
			}
			appendAll(t, p, batch)
		}
		if segBytes < DefaultSegmentBytes && len(p.segments) < 10 {
			t.Fatalf("SegmentBytes %d: %d segments, the test wants rolls", segBytes, len(p.segments))
		}
		checkLayout(t, p)
		got := fetchAll(t, p)
		if len(got) != len(want) {
			t.Fatalf("SegmentBytes %d: fetched %d of %d", segBytes, len(got), len(want))
		}
		for i := range want {
			if !sameMessage(got[i], want[i]) {
				t.Fatalf("SegmentBytes %d: offset %d came back as\n%+v, want\n%+v", segBytes, i, got[i], want[i])
			}
		}
		var buf []Message
		for i := 0; i < 200; i++ {
			off, max := rng.Intn(len(want)+1), rng.Intn(300)
			n := len(want) - off
			if max > 0 && n > max {
				n = max
			}
			var err error
			if buf, err = p.fetch(buf, int64(off), max); err != nil || len(buf) != n {
				t.Fatalf("fetch(%d, %d) = %d messages, %v; want %d", off, max, len(buf), err, n)
			}
			for j := range buf {
				if !sameMessage(buf[j], want[off+j]) {
					t.Fatalf("fetch(%d, %d)[%d] = %+v, want %+v", off, max, j, buf[j], want[off+j])
				}
			}
		}
	}
}

// What a fetch returned stays what it was, whatever the log does next, and
// the log stays what was produced, whatever its producers and readers do
// with their copies.
func TestFetchedMessagesAreStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := testPartition(t, TopicConfig{Acks: AckLeader, SegmentBytes: 6000, RetentionBytes: 20_000})
	produce := func(n int, tag string) []Message {
		batch := make([]Message, n)
		for i := range batch {
			batch[i] = Message{
				Key: []byte(tag + "-key"), Value: append([]byte(tag), randomBytes(rng, 60)...),
				Service: "svc", Tier: "prod", Seq: int64(i + 1), AppTime: testNow,
				Headers: map[string]string{HeaderOrigin: tag},
			}
		}
		appendAll(t, p, batch)
		return batch
	}
	produce(10, "kept")
	p.advanceReplication()
	sent := produce(10, "cut")
	held := fetchAll(t, p) // aliases the log from here on
	want := make([]Message, len(held))
	for i := range held {
		want[i] = deepCopy(held[i])
	}
	check := func(after string) {
		t.Helper()
		for i := range held {
			if !sameMessage(held[i], want[i]) {
				t.Fatalf("after %s, the message fetched at offset %d reads\n%+v, was\n%+v", after, i, held[i], want[i])
			}
		}
	}

	// The producer reuses what it passed in.
	for i := range sent {
		copy(sent[i].Key, "XXXXXXX")
		copy(sent[i].Value, "XXXXXXX")
		sent[i].Headers[HeaderOrigin] = "overwritten"
	}
	check("the producer overwrote its batch")
	for i, m := range fetchAll(t, p) {
		if !sameMessage(m, want[i]) {
			t.Fatalf("the log follows the producer's slice: offset %d reads %+v", i, m)
		}
	}

	// A reader writes into the map it was given.
	held[0].Headers[HeaderOrigin] = "mine"
	held[0].Headers["extra"] = "1"
	if again := fetchAll(t, p)[0]; !sameMessage(again, want[0]) {
		t.Fatalf("a fetched Headers map is shared with the log: next fetch reads %v", again.Headers)
	}
	held[0].Headers = maps.Clone(want[0].Headers)

	// The leader fails: offsets 10..19 are cut and assigned again, to
	// messages of the same size.
	if lost := p.truncateUnreplicated(); lost != 10 {
		t.Fatalf("lost %d, want 10", lost)
	}
	produce(10, "new")
	check("a truncation and regrowth over the same offsets")
	if m := fetchAll(t, p)[10]; string(m.Key) != "new-key" || m.Headers[HeaderOrigin] != "new" {
		t.Fatalf("offset 10 after regrowth = %+v", m)
	}

	// The slab grows, the segment rolls, retention drops it.
	for low := int64(0); low < 20; low, _ = p.watermarks() {
		produce(25, "more")
		check("further appends")
	}
	check("retention dropped the segment")
}

// After any mix of appends, replication, truncation and retention the three
// byte counts agree: the partition's, the sum over its segments, and what
// sizeBytes charges the messages a full fetch returns. A truncation that
// forgets the segment's share, or the segments it drops whole, leaves the
// partition retaining less than RetentionBytes for ever.
func TestTruncationKeepsByteAccounting(t *testing.T) {
	cfg := TopicConfig{Acks: AckLeader, SegmentBytes: 1000, RetentionBytes: 10_000}
	batch := func(n int) []Message {
		msgs := make([]Message, n)
		for i := range msgs {
			msgs[i].Value = make([]byte, 68) // charged 100
		}
		return msgs
	}
	check := func(p *partition, after string) {
		t.Helper()
		var segs, charged int64
		for _, s := range p.segments {
			segs += s.bytes
		}
		msgs := fetchAll(t, p)
		for i := range msgs {
			charged += msgs[i].sizeBytes()
		}
		if low, high := p.watermarks(); int64(len(msgs)) != high-low {
			t.Fatalf("after %s: fetched %d of [%d,%d)", after, len(msgs), low, high)
		}
		if p.totalBytes != charged || segs != charged {
			t.Fatalf("after %s: totalBytes %d, segments sum to %d, the messages are charged %d", after, p.totalBytes, segs, charged)
		}
	}
	for _, cut := range []int{3, 35} { // inside the active segment; over several
		p := testPartition(t, cfg)
		appendAll(t, p, batch(5))
		p.advanceReplication()
		appendAll(t, p, batch(cut))
		if lost := p.truncateUnreplicated(); lost != int64(cut) {
			t.Fatalf("lost %d, want %d", lost, cut)
		}
		check(p, fmt.Sprintf("5 replicated + %d cut", cut))
		for i := 0; i < 10; i++ {
			appendAll(t, p, batch(40))
			p.advanceReplication()
		}
		check(p, "regrowth")
		if p.totalBytes <= cfg.RetentionBytes-cfg.SegmentBytes {
			t.Errorf("%d cut: retention holds the partition at %d of %d bytes", cut, p.totalBytes, cfg.RetentionBytes)
		}
	}
	rng := rand.New(rand.NewSource(24))
	p := testPartition(t, cfg)
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			appendAll(t, p, batch(1+rng.Intn(40)))
			check(p, "append")
		case op < 8:
			p.advanceReplication()
		default:
			p.truncateUnreplicated()
			check(p, "truncation")
		}
	}
	if len(p.cuts) == 0 || p.logStart == 0 {
		t.Fatalf("the walk made %d cuts and retention reached %d", len(p.cuts), p.logStart)
	}
}

// benchBatch is a produced batch of the benchmark's shape: 46-byte payload,
// no key, stamped by bench-producer/prod — 183 charged bytes at a six-digit
// Seq. seq is the last Seq handed out.
func benchBatch(n int, seq *int64) []Message {
	msgs := make([]Message, n)
	payload := make([]byte, 46)
	for i := range msgs {
		*seq++
		msgs[i] = Message{Value: payload, Timestamp: testNow, Service: "bench-producer", Tier: "prod", Seq: *seq, AppTime: testNow}
	}
	return msgs
}

// The layout changes what a message occupies, not what it is charged: a
// partition retains, after every batch, exactly the [low, high) that rolling
// and retention over sizeBytes give. And it occupies far less than it is
// charged: a full partition of benchmark messages holds under 110 bytes
// each, against 183 charged.
func TestRetentionFollowsChargedBytes(t *testing.T) {
	cfg := TopicConfig{RetentionBytes: 8 << 20}
	p := testPartition(t, cfg)
	type seg struct{ base, bytes int64 }
	var (
		model      []seg
		total, low int64
		seq        = int64(99_999)
	)
	for high := int64(0); high < 120_000; {
		msgs := benchBatch(500, &seq)
		if sz := msgs[0].sizeBytes(); sz != 183 {
			t.Fatalf("a benchmark message is charged %d bytes, want 183", sz)
		}
		for i := range msgs {
			if len(model) == 0 || model[len(model)-1].bytes >= DefaultSegmentBytes {
				model = append(model, seg{base: high})
			}
			model[len(model)-1].bytes += msgs[i].sizeBytes()
			total += msgs[i].sizeBytes()
			high++
		}
		for len(model) > 1 && total > cfg.RetentionBytes {
			total -= model[0].bytes
			model = model[1:]
			low = model[0].base
		}
		appendAll(t, p, msgs)
		if l, h := p.watermarks(); l != low || h != high {
			t.Fatalf("retained [%d,%d), sizeBytes gives [%d,%d)", l, h, low, high)
		}
	}
	if low == 0 {
		t.Fatal("retention never dropped a segment")
	}
	checkLayout(t, p)
	st := p.stats()
	if st.Bytes != total {
		t.Errorf("stats charge %d bytes, want %d", st.Bytes, total)
	}
	per := float64(st.ResidentBytes) / float64(st.HighWatermark-st.LowWatermark)
	t.Logf("%.1f resident bytes per message, %d charged", per, st.Bytes/(st.HighWatermark-st.LowWatermark))
	if per > 110 {
		t.Errorf("%.1f resident bytes per message (%d over %d messages), want <= 110", per, st.ResidentBytes, st.HighWatermark-st.LowWatermark)
	}
}

// Appending a batch allocates for the segment now and then — a slab, an
// index, a roll — and never for a message. And each byte once: a rolled
// segment keeps the slab it was written into, so steady appends allocate
// what the records occupy plus newSegment's sixteenth of headroom, not a
// second copy at every roll.
func TestAppendAllocatesPerSegmentNotPerMessage(t *testing.T) {
	p := testPartition(t, TopicConfig{RetentionBytes: 8 << 20})
	var seq int64
	msgs := benchBatch(500, &seq)
	picks := allOf(msgs)
	run := func() {
		if err := p.append(msgs, picks); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		run() // past the first segment, whose slab doubles its way up
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// 200 batches are 100 000 messages and some 17 rolls.
	if n := testing.AllocsPerRun(200, run); n > 1 {
		t.Errorf("appending 500 messages allocates %v times, want at most one", n)
	}
	runtime.ReadMemStats(&after)
	rolled := p.segments[len(p.segments)-2]
	occupied := float64(len(rolled.data)+4*len(rolled.ends)) / float64(rolled.count())
	perMsg := float64(after.TotalAlloc-before.TotalAlloc) / float64(201*len(msgs))
	t.Logf("%.1f bytes allocated per message, %.1f occupied", perMsg, occupied)
	if perMsg > occupied*17/16+1 {
		t.Errorf("appends allocate %.1f bytes per message, want at most 17/16 of the %.1f a message occupies", perMsg, occupied)
	}
}

// BenchmarkPartitionAppendFetch is the log's two hot calls on benchmark-shaped
// messages, per message: a 500-message append into a partition at its
// retention bound, and a 128-message fetch from the middle of it.
func BenchmarkPartitionAppendFetch(b *testing.B) {
	perMessage := func(b *testing.B, n int, f func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		total := float64(b.N * n)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/msg")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/msg")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/msg")
	}
	full := func(b *testing.B) (*partition, []Message, []int32) {
		p := testPartition(b, TopicConfig{RetentionBytes: 8 << 20})
		var seq int64
		msgs := benchBatch(500, &seq)
		picks := allOf(msgs)
		for i := 0; i < 120; i++ {
			if err := p.append(msgs, picks); err != nil {
				b.Fatal(err)
			}
		}
		return p, msgs, picks
	}
	b.Run("append500", func(b *testing.B) {
		p, msgs, picks := full(b)
		perMessage(b, len(msgs), func() {
			if err := p.append(msgs, picks); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("fetch128", func(b *testing.B) {
		p, _, _ := full(b)
		low, high := p.watermarks()
		var buf []Message
		perMessage(b, 128, func() {
			var err error
			if buf, err = p.fetch(buf, (low+high)/2, 128); err != nil || len(buf) != 128 {
				b.Fatalf("fetch = %d messages, %v", len(buf), err)
			}
		})
	})
}

// FuzzSegmentRoundTrip: any field bytes go into the log and come back equal,
// over rolls and a truncation, without a panic.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte("k"), []byte("value"), "svc", "prod", int64(1), int64(testNow), int64(testNow), "retry-count", "3", uint8(5))
	f.Add([]byte(nil), []byte(nil), "", "", int64(0), int64(0), int64(0), "", "", uint8(0))
	f.Add(make([]byte, 300), make([]byte, 700), "s", "", int64(math.MinInt64), int64(math.MaxInt64), int64(-1), "\x00", "\xff\xfe", uint8(200))
	f.Fuzz(func(t *testing.T, key, value []byte, service, tier string, seq, appTime, ts int64, hk, hv string, n uint8) {
		p := testPartition(t, TopicConfig{Acks: AckLeader, SegmentBytes: 512})
		base := Message{Key: key, Value: value, Timestamp: ts, Service: service, Tier: tier, Seq: seq, AppTime: appTime}
		var batch []Message
		for i := 0; i <= int(n%16); i++ {
			m := base
			switch i % 3 {
			case 1:
				m.Headers = map[string]string{hk: hv}
				m.Service, m.Tier = tier, service
			case 2:
				m.Headers = map[string]string{hk: hv, hv: hk, "i": fmt.Sprint(i)}
				m.Key, m.Value = value, key
			}
			batch = append(batch, m)
		}
		appendAll(t, p, batch)
		p.advanceReplication()
		appendAll(t, p, batch)
		p.truncateUnreplicated()
		appendAll(t, p, batch[:1])
		got := fetchAll(t, p)
		want := append(append([]Message(nil), batch...), batch[0])
		if len(got) != len(want) {
			t.Fatalf("fetched %d messages, want %d", len(got), len(want))
		}
		var charged int64
		for i := range want {
			if w := asFetched(want[i], p, int64(i)); !sameMessage(got[i], w) {
				t.Fatalf("offset %d came back as %+v, want %+v", i, got[i], w)
			}
			charged += want[i].sizeBytes()
		}
		if p.totalBytes != charged {
			t.Fatalf("totalBytes %d, the messages are charged %d", p.totalBytes, charged)
		}
	})
}

// The admin snapshot reports what the log holds beside what it charges.
func TestPartitionStatsReportResidentBytes(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	produceN(t, c, "t", 100, true)
	st := c.PartitionStats()[0]
	charged, resident := st["bytes"].(int64), st["resident_bytes"].(int64)
	if resident <= 0 || resident >= charged {
		t.Errorf("100 messages: %d resident bytes, %d charged", resident, charged)
	}
}
