// Package trace is the engine stack's dependency-free distributed
// tracing layer: spans (trace ID / span ID / parent, name, typed
// attributes, start + duration) recorded per request, assembled into
// traces, kept in a bounded in-memory ring and optionally appended to
// an fsync'd JSONL log.
//
// The design follows the same determinism discipline as the rest of
// the repository:
//
//   - Wall clock enters only through an injected Clock (the package is
//     inside rdvlint's nodrift scope; the one sanctioned time.Now sits
//     in systemClock.Now, the Clock-adapter escape). Tests drive a
//     fixed clock and assert exact durations.
//   - Span and trace IDs are random (crypto/rand by default,
//     injectable), because they name requests, never results: tracing
//     on or off cannot change a single byte of search output.
//   - No map iteration anywhere near output: spans are kept in
//     completion order, open spans in start order, so every rendering
//     of a trace is deterministic given the same events.
//
// Propagation across daemons uses the W3C traceparent header
// (Span.Traceparent / ParseTraceparent): a coordinator injects its
// per-shard span as the parent, the worker roots its own span tree
// under it, returns the tree in the shard response, and the
// coordinator adopts it — one trace spanning every node that touched
// the search.
//
// Every method is nil-receiver safe: a nil *Tracer or nil *Span is
// "tracing disabled", so call sites are unconditional and the disabled
// path costs a pointer test.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Clock is the tracer's time source, injectable so span timestamps are
// deterministic under test (and so rdvlint's nodrift analyzer can
// verify no raw wall-clock read hides in trace code).
type Clock interface {
	Now() time.Time
}

// systemClock is the production Clock. Its Now method is the package's
// single sanctioned wall-clock read (the nodrift Clock-adapter escape).
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// An Attr is one typed key/value span attribute.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: int64(value)} }

// Bool returns a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// Attrs is a span's attributes in application order; the latest value
// for a key wins. It JSON-encodes as an object with the keys sorted
// (exactly the rendering a map would produce) and decodes back to
// key-sorted entries, so wire and log round trips are deterministic.
// It is a slice, not a map, because records are built on the serving
// hot path: copying a short slice costs no hashing and no per-record
// map allocation.
type Attrs []Attr

// Get returns the latest value for key (nil if absent).
func (a Attrs) Get(key string) any {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i].Key == key {
			return a[i].Value
		}
	}
	return nil
}

// MarshalJSON renders the attributes as an object with sorted keys,
// the latest value for a key winning.
func (a Attrs) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, len(a))
	for _, at := range a {
		m[at.Key] = at.Value
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes an attribute object into key-sorted entries.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	*a = make(Attrs, 0, len(keys))
	for _, k := range keys {
		*a = append(*a, Attr{Key: k, Value: m[k]})
	}
	return nil
}

// A SpanRecord is one finished (or snapshotted) span, in the wire and
// log encoding. Attrs encodes as an object with sorted keys, so the
// encoding is deterministic.
type SpanRecord struct {
	TraceID  string        `json:"traceId"`
	SpanID   string        `json:"spanId"`
	ParentID string        `json:"parentId,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Attrs    Attrs         `json:"attrs,omitempty"`
	// InProgress marks a snapshot of a span that had not ended when the
	// record was taken (a worker reports its root span while still
	// writing the response; a trace published by its root may carry
	// stragglers). Duration is then "so far", not final.
	InProgress bool `json:"inProgress,omitempty"`
}

// A Trace is one request's assembled span tree.
type Trace struct {
	TraceID string `json:"traceId"`
	// Root is the span ID of the span whose End published the trace.
	Root string `json:"rootSpanId"`
	// Start and Duration mirror the root span, for cheap filtering.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	// Spans lists every recorded span, finished spans in completion
	// order followed by in-progress snapshots in start order. The root
	// is always present.
	Spans []SpanRecord `json:"spans"`
}

// RootRecord returns the trace's root span record (a zero record if
// the trace is malformed).
func (tr Trace) RootRecord() SpanRecord {
	for _, s := range tr.Spans {
		if s.SpanID == tr.Root {
			return s
		}
	}
	return SpanRecord{}
}

// Config tunes a Tracer.
type Config struct {
	// Clock injects the time source (nil = system clock).
	Clock Clock
	// RingSize bounds the in-memory ring of recent traces
	// (0 = DefaultRingSize).
	RingSize int
	// Log, when non-nil, receives every completed trace as one JSONL
	// line (fsync'd). Write failures are counted, never fatal.
	Log *Log
	// ReadID fills b with random bytes for trace/span IDs
	// (nil = crypto/rand). Injectable so tests get stable IDs.
	ReadID func(b []byte)
}

// DefaultRingSize is the recent-trace ring capacity when Config leaves
// it zero: enough to hold the interesting tail of a busy daemon, small
// enough (~a few MB of spans) to never matter.
const DefaultRingSize = 256

// Tracer records spans and assembles them into traces. A nil *Tracer
// is valid and records nothing.
type Tracer struct {
	clock  Clock
	readID func([]byte) // nil = ids
	ids    idSource
	log    *Log

	mu      sync.Mutex
	ring    []Trace // guarded by mu — capacity-bounded, next points at the oldest
	next    int     // guarded by mu
	total   int     // guarded by mu — traces ever published
	logErrs int     // guarded by mu — failed log writes
}

// New returns a tracer over the configuration.
func New(cfg Config) *Tracer {
	clock := cfg.Clock
	if clock == nil {
		clock = systemClock{}
	}
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Tracer{
		clock:  clock,
		readID: cfg.ReadID,
		log:    cfg.Log,
		ring:   make([]Trace, 0, size),
	}
}

// Enabled reports whether the tracer records anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// idSource is the default ID generator: crypto/rand read a page at a
// time and hex-encoded once, with IDs sliced off as substrings. Every
// span start generates an ID on the serving hot path, so the per-ID
// cost must be a slice, not a getrandom call plus two allocations.
type idSource struct {
	mu  sync.Mutex
	hex string // guarded by mu — pre-encoded randomness
	off int    // guarded by mu
}

func (s *idSource) next(chars int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.off+chars > len(s.hex) {
		raw := make([]byte, 2048)
		rand.Read(raw)
		s.hex = hex.EncodeToString(raw)
		s.off = 0
	}
	id := s.hex[s.off : s.off+chars]
	s.off += chars
	return id
}

// allZeroHex reports whether the hex string encodes zero (the W3C
// encoding reserves all-zero IDs as invalid).
func allZeroHex(id string) bool {
	for i := 0; i < len(id); i++ {
		if id[i] != '0' {
			return false
		}
	}
	return true
}

// newID returns count random bytes as lowercase hex, never all-zero.
func (t *Tracer) newID(count int) string {
	if t.readID != nil { // test hook: stable IDs
		b := make([]byte, count)
		t.readID(b)
		zero := true
		for _, x := range b {
			if x != 0 {
				zero = false
				break
			}
		}
		if zero {
			b[count-1] = 1
		}
		return hex.EncodeToString(b)
	}
	for {
		if id := t.ids.next(2 * count); !allZeroHex(id) {
			return id
		}
	}
}

// traceData accumulates one trace's spans, shared by every span of the
// trace through the context. The embedded buffers amortize the serving
// hot path: a typical request's spans and records live in the one
// traceData allocation, spilling to the heap only past their capacity.
type traceData struct {
	tracer  *Tracer
	traceID string

	mu        sync.Mutex
	finished  []SpanRecord // guarded by mu — completion order
	open      []*Span      // guarded by mu — start order
	published bool         // guarded by mu
	dropped   int          // guarded by mu — records arriving after publish

	spanUsed int           // guarded by mu
	spanBuf  [6]Span       // guarded by mu — handed out by newSpanLocked
	recBuf   [8]SpanRecord // initial backing of finished
	openBuf  [6]*Span      // initial backing of open
}

// newSpanLocked hands out a span, from spanBuf while any remain.
// Callers hold d.mu, and must fully initialize the span before
// releasing it: spans become visible to Snapshot through d.open,
// which is read under d.mu.
func (d *traceData) newSpanLocked() *Span {
	if d.spanUsed < len(d.spanBuf) {
		s := &d.spanBuf[d.spanUsed]
		d.spanUsed++
		return s
	}
	return &Span{}
}

// StartRoot begins a new trace with a fresh trace ID and returns the
// root span plus a context carrying it. Ending the root publishes the
// trace (ring + log); spans still open at that point are snapshotted
// as in-progress.
func (t *Tracer) StartRoot(ctx Context, name string, attrs ...Attr) (Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.startTrace(ctx, t.newID(16), "", name, attrs)
}

// StartRemote begins the local half of a trace started elsewhere (the
// worker side of a propagated traceparent): the returned span joins
// traceID under parentID. Ending it publishes the local span tree to
// this tracer's ring/log; Snapshot carries the tree back to the
// caller for reassembly.
func (t *Tracer) StartRemote(ctx Context, traceID, parentID, name string, attrs ...Attr) (Context, *Span) {
	if t == nil || traceID == "" {
		return ctx, nil
	}
	return t.startTrace(ctx, traceID, parentID, name, attrs)
}

func (t *Tracer) startTrace(ctx Context, traceID, parentID, name string, attrs []Attr) (Context, *Span) {
	spanID := t.newID(8)
	now := t.clock.Now()
	data := &traceData{tracer: t, traceID: traceID}
	data.finished = data.recBuf[:0]
	data.open = data.openBuf[:0]
	data.mu.Lock()
	s := data.newSpanLocked()
	s.data = data
	s.name = name
	s.spanID = spanID
	s.parentID = parentID
	s.start = now
	s.root = true
	s.attrs = append(s.attrBuf[:0], attrs...)
	data.open = append(data.open, s)
	data.mu.Unlock()
	return ContextWith(ctx, s), s
}

// publish moves a completed trace into the ring and the log.
func (t *Tracer) publish(tr Trace) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.total++
	log := t.log
	t.mu.Unlock()
	if log != nil {
		if err := log.Write(tr); err != nil {
			t.mu.Lock()
			t.logErrs++
			t.mu.Unlock()
		}
	}
}

// Stats reports the tracer's lifetime counters.
type Stats struct {
	// Published is how many traces have completed.
	Published int `json:"published"`
	// Buffered is how many are currently held in the ring.
	Buffered int `json:"buffered"`
	// LogErrors counts failed trace-log writes.
	LogErrors int `json:"logErrors"`
}

// Stats returns lifetime counters (zero for a nil tracer).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Published: t.total, Buffered: len(t.ring), LogErrors: t.logErrs}
}

// Filter selects traces from the ring.
type Filter struct {
	// MinDuration drops traces whose root span was faster.
	MinDuration time.Duration
	// Tenant, when non-empty, requires the root span's "tenant"
	// attribute to equal it.
	Tenant string
	// Limit caps the result count (0 = no cap).
	Limit int
}

// Traces returns the ring's traces matching the filter, newest first.
func (t *Tracer) Traces(f Filter) []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.ring))
	// The ring is oldest-at-next once full; walk backwards from the
	// newest entry.
	n := len(t.ring)
	for i := 0; i < n; i++ {
		idx := (t.next + n - 1 - i) % n
		tr := t.ring[idx]
		if tr.Duration < f.MinDuration {
			continue
		}
		if f.Tenant != "" {
			tenant, _ := tr.RootRecord().Attrs.Get("tenant").(string)
			if tenant != f.Tenant {
				continue
			}
		}
		out = append(out, tr)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// A Span is one timed operation within a trace. A nil *Span is valid
// and records nothing, so instrumentation sites never branch.
type Span struct {
	data     *traceData
	name     string
	spanID   string
	parentID string
	start    time.Time
	root     bool

	mu      sync.Mutex
	attrs   []Attr  // guarded by mu
	ended   bool    // guarded by mu
	attrBuf [6]Attr // initial backing of attrs
}

// Start begins a child of the span carried by ctx and returns it plus
// a context carrying the child. With no span in ctx (or tracing
// disabled) it returns ctx and a nil span.
func Start(ctx Context, name string, attrs ...Attr) (Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := startChild(parent, name, attrs)
	return ContextWith(ctx, s), s
}

// StartLeaf begins a child span that will never have children of its
// own, so no derived context is returned (or allocated — context
// derivation is a per-span allocation on every traced request). The
// phase spans of the serving path (auth, cache, queue, store, ...)
// are leaves.
func StartLeaf(ctx Context, name string, attrs ...Attr) *Span {
	parent := FromContext(ctx)
	if parent == nil {
		return nil
	}
	return startChild(parent, name, attrs)
}

func startChild(parent *Span, name string, attrs []Attr) *Span {
	d := parent.data
	t := d.tracer
	spanID := t.newID(8)
	now := t.clock.Now()
	d.mu.Lock()
	s := d.newSpanLocked()
	s.data = d
	s.name = name
	s.spanID = spanID
	s.parentID = parent.spanID
	s.start = now
	s.attrs = append(s.attrBuf[:0], attrs...)
	d.open = append(d.open, s)
	d.mu.Unlock()
	return s
}

// TraceID returns the span's trace ID ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.traceID
}

// SpanID returns the span's ID ("" for nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// SetAttr appends attributes. Later values for the same key win.
// Attributes set after End are dropped: an ended span is immutable,
// which is what lets its record share the attribute slice instead of
// copying it.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.mu.Unlock()
}

// record renders the span at time now.
func (s *Span) record(now time.Time, inProgress bool) SpanRecord {
	s.mu.Lock()
	var attrs Attrs
	if len(s.attrs) > 0 {
		if s.ended {
			// Immutable once ended: share rather than copy.
			attrs = Attrs(s.attrs[:len(s.attrs):len(s.attrs)])
		} else {
			attrs = make(Attrs, len(s.attrs))
			copy(attrs, s.attrs)
		}
	}
	s.mu.Unlock()
	return SpanRecord{
		TraceID:    s.data.traceID,
		SpanID:     s.spanID,
		ParentID:   s.parentID,
		Name:       s.name,
		Start:      s.start,
		Duration:   now.Sub(s.start),
		Attrs:      attrs,
		InProgress: inProgress,
	}
}

// End finishes the span. Ending the trace's root publishes the whole
// trace; open descendants are snapshotted as in-progress, and a span
// ended after its trace published is counted as dropped rather than
// recorded. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	already := s.ended
	s.ended = true
	s.mu.Unlock()
	if already {
		return
	}

	d := s.data
	now := d.tracer.clock.Now()
	rec := s.record(now, false)

	d.mu.Lock()
	for i, open := range d.open {
		if open == s {
			d.open = append(d.open[:i], d.open[i+1:]...)
			break
		}
	}
	if d.published {
		d.dropped++
		d.mu.Unlock()
		return
	}
	d.finished = append(d.finished, rec)
	if !s.root {
		d.mu.Unlock()
		return
	}
	// Root end: publish. Anything still open (an engine run whose every
	// client disconnected, a straggler peer) is captured in-progress so
	// the trace still tells the story.
	d.published = true
	// Hand the finished slice to the published trace rather than
	// copying: published gates every later append, so ownership moves.
	spans := d.finished
	for _, open := range d.open {
		spans = append(spans, open.record(now, true))
	}
	d.finished = nil
	d.mu.Unlock()

	d.tracer.publish(Trace{
		TraceID:  d.traceID,
		Root:     s.spanID,
		Start:    rec.Start,
		Duration: rec.Duration,
		Spans:    spans,
	})
}

// Snapshot returns every span recorded so far in the span's trace:
// finished spans in completion order, then open spans (including s
// itself if unfinished) as in-progress records with duration-so-far.
// This is what a worker embeds in its shard response while its own
// root span is still serving the request.
func (s *Span) Snapshot() []SpanRecord {
	if s == nil {
		return nil
	}
	d := s.data
	now := d.tracer.clock.Now()
	d.mu.Lock()
	out := make([]SpanRecord, len(d.finished), len(d.finished)+len(d.open))
	copy(out, d.finished)
	open := append([]*Span(nil), d.open...)
	d.mu.Unlock()
	for _, sp := range open {
		out = append(out, sp.record(now, true))
	}
	return out
}

// Adopt merges span records produced elsewhere (a worker's Snapshot)
// into the span's trace. Records from a different trace are dropped:
// adoption can extend a trace, never splice two traces together.
func (s *Span) Adopt(records []SpanRecord) {
	if s == nil || len(records) == 0 {
		return
	}
	d := s.data
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.published {
		d.dropped += len(records)
		return
	}
	for _, rec := range records {
		if rec.TraceID != d.traceID {
			continue
		}
		d.finished = append(d.finished, rec)
	}
}
