package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies a layer boundary the harness puts a span around.
type spanName uint8

const (
	spOp spanName = iota
	spClientSend
	spClientWait
	spServerQueue
	spServerExec
	spServerCommit
	spServerFlush
	spPoolEnter
	spSTMAtomic
	spPoolExit
	spCoreNext
	spSimWindow
	spCoreObserve
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "client.send", "client.wait",
	"server.queue", "server.exec", "server.commit", "server.flush",
	"pnpool.enter", "stm.atomic", "pnpool.exit",
	"core.next", "simcore.window", "core.observe",
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's base; parent is the 1-based index of the span that caused it
// (0 for a root); op is the operation all spans of one request share.
type span struct {
	name       spanName
	parent     int32
	op         uint64
	start, end int64
}

// spanTok is an open span.
type spanTok struct {
	idx   int32 // 1-based index into spans, 0 when the span is not kept
	name  spanName
	start int64
}

// spanAgg sums every span of one name, kept or not.
type spanAgg struct {
	count   int
	totalNs int64
}

// maxSpans bounds the spans kept for the trace file, all tracks together;
// later spans still count in the per-name sums.
const maxSpans = 60_000

// spanRecorder keeps spans in memory until the run ends. Every client
// goroutine records on its own track, so recording takes no lock. A nil
// recorder hands out nil tracks, which record nothing: untraced runs pay
// one nil check per call site.
type spanRecorder struct {
	tracks []*spanTrack
}

// spanTrack is one goroutine's spans. Parents are indexes into the same
// track.
type spanTrack struct {
	base  time.Time
	spans []span
	agg   [numSpanNames]spanAgg
}

// newSpanRecorder returns a recorder of the given number of tracks that
// keeps up to keep spans, all tracks together.
func newSpanRecorder(tracks, keep int) *spanRecorder {
	r, base := &spanRecorder{}, time.Now()
	for i := 0; i < tracks; i++ {
		r.tracks = append(r.tracks, &spanTrack{base: base, spans: make([]span, 0, keep/tracks)})
	}
	return r
}

func (r *spanRecorder) track(i int) *spanTrack {
	if r == nil {
		return nil
	}
	return r.tracks[i]
}

func (t *spanTrack) now() int64 { return int64(time.Since(t.base)) }

// spansPerOp is the room an op span must find to be kept: itself and the
// children of a served request (two client spans, four server stages).
const spansPerOp = 7

// keep decides whether a span goes to the trace file. An op is kept while
// there is room for all its children; a child only if its op was kept.
func (t *spanTrack) keep(name spanName, parent int32) bool {
	if parent == 0 {
		return name == spOp && len(t.spans)+spansPerOp <= cap(t.spans)
	}
	return len(t.spans) < cap(t.spans)
}

// begin opens a span; parent is the idx of the token that caused it.
func (t *spanTrack) begin(name spanName, parent int32, op uint64) spanTok {
	if t == nil {
		return spanTok{}
	}
	tok := spanTok{name: name, start: t.now()}
	if t.keep(name, parent) {
		t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: tok.start})
		tok.idx = int32(len(t.spans))
	}
	return tok
}

// end closes a span.
func (t *spanTrack) end(tok spanTok) {
	if t == nil {
		return
	}
	now := t.now()
	if tok.idx > 0 {
		t.spans[tok.idx-1].end = now
	}
	t.agg[tok.name].count++
	t.agg[tok.name].totalNs += now - tok.start
}

// tally counts a span that was timed elsewhere in the per-name sums.
func (t *spanTrack) tally(name spanName, ns int64) {
	t.agg[name].count++
	t.agg[name].totalNs += ns
}

// put keeps a span that was timed elsewhere for the trace file and returns
// its idx (0 when not kept). It does not tally.
func (t *spanTrack) put(name spanName, parent int32, op uint64, start, end int64) int32 {
	if !t.keep(name, parent) {
		return 0
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: start, end: end})
	return int32(len(t.spans))
}

// free is how many more spans the track keeps.
func (t *spanTrack) free() int { return cap(t.spans) - len(t.spans) }

// sum adds up every span of one name over all tracks.
func (r *spanRecorder) sum(name spanName) (a spanAgg) {
	for _, t := range r.tracks {
		a.count += t.agg[name].count
		a.totalNs += t.agg[name].totalNs
	}
	return a
}

func (a spanAgg) mean() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.totalNs) / float64(a.count)
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args"`
}

// selfTimes returns, per kept span of a track, its duration minus the part
// its child spans cover.
func (t *spanTrack) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// write renders the kept spans as Chrome trace_event JSON (chrome://tracing
// and ui.perfetto.dev both load it): one process per track, one thread per
// operation, so the spans of one request sit together.
func (r *spanRecorder) write(path string) error {
	selfByName := map[string]float64{}
	var events []traceEvent
	for pid, t := range r.tracks {
		self := t.selfTimes()
		for i, s := range t.spans {
			if s.end < s.start {
				continue // still open when the run ended
			}
			name := spanNames[s.name]
			selfByName[name] += float64(self[i]) / 1e3
			events = append(events, traceEvent{
				Name: name, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: pid, Tid: s.op,
				Args: map[string]any{"id": i + 1, "parent": s.parent, "op": s.op, "self_us": float64(self[i]) / 1e3},
			})
		}
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"self_us_by_name": selfByName},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
