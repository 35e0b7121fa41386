package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// epoch anchors every timestamp the benchmark takes: now() is monotonic
// nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanSample keeps one native op span in this many; phase and set-up spans
// are always kept. The per-layer accumulators see every op regardless.
const spanSample = 1024

// span is one trace span: [Start, End) in now() nanoseconds. Spans that
// share an ID belong to one operation.
type span struct {
	Name       string
	Tid        int
	ID         uint64
	Start, End int64
}

// tracer collects the spans of a traced run. A nil tracer records nothing,
// so untraced runs pass nil and pay one nil check per phase.
type tracer struct {
	mu    sync.Mutex // phase spans arrive from harness workers too
	spans []span
}

// mark records a span from start to now.
func (t *tracer) mark(name string, tid int, start int64) {
	if t != nil {
		t.add(span{Name: name, Tid: tid, Start: start, End: now()})
	}
}

func (t *tracer) add(sp ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp...)
	t.mu.Unlock()
}

// opSpan is one sampled native op: its id, slot, op code and the four
// timestamps around Begin, Apply and End.
type opSpan struct {
	id   uint64
	slot int
	code int
	t    [4]int64
}

// spans expands an op into its root span and the Begin, Apply and End
// children; the children tile the root exactly.
func (o opSpan) spans() []span {
	name := opCodeNames[o.code]
	return []span{
		{Name: "op." + name, Tid: o.slot, ID: o.id, Start: o.t[0], End: o.t[3]},
		{Name: "native.Begin", Tid: o.slot, ID: o.id, Start: o.t[0], End: o.t[1]},
		{Name: "apply." + name, Tid: o.slot, ID: o.id, Start: o.t[1], End: o.t[2]},
		{Name: "native.End", Tid: o.slot, ID: o.id, Start: o.t[2], End: o.t[3]},
	}
}

// write stores the spans as Chrome trace-event JSON (opens in Perfetto).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint64 `json:"args,omitempty"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		ev := event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Tid}
		if s.ID != 0 {
			ev.Args = map[string]uint64{"id": s.ID}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(b)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
