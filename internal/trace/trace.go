// Package trace records scheduling and algorithm events of a simulation run.
//
// The scheduler emits Arrival/Dispatch/Preempt/Complete events; algorithms
// emit semantic annotations (announce, help, commit) through Env.Note.
// Tests assert on the resulting log — the Figure 2 incremental-helping
// scenario of the paper is reproduced as assertions over this log — and
// cmd/wftrace -export gantt pretty-prints it.
//
// The log is built for the simulator's hot path: events are stored in
// fixed-size chunks (append never copies the whole log), structured
// annotation fields live in a small inline array inside the Event (no
// per-note slice allocation), and the human-readable message of a
// structured annotation is rendered lazily by Event.Message rather than
// formatted at append time. Appending an annotation therefore allocates
// nothing beyond the amortized chunk itself.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Kind classifies a trace event.
type Kind int

// Event kinds emitted by the scheduler and by algorithm annotations.
const (
	// KindArrival: a job became ready on its processor.
	KindArrival Kind = iota + 1
	// KindDispatch: a process started or resumed running.
	KindDispatch
	// KindPreempt: the running process was preempted by a higher-priority
	// arrival.
	KindPreempt
	// KindComplete: a process's body returned.
	KindComplete
	// KindAnnotate: free-form annotation from algorithm code.
	KindAnnotate
)

// String returns the mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KindArrival:
		return "arrive"
	case KindDispatch:
		return "dispatch"
	case KindPreempt:
		return "preempt"
	case KindComplete:
		return "complete"
	case KindAnnotate:
		return "note"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Field is one typed argument of a structured annotation: a named integer
// (or boolean) value such as p=2, key=30 or needhelp=true. Structured
// arguments are what the span layer (internal/tracex) consumes; the rendered
// Message form exists for humans and for substring assertions in tests.
type Field struct {
	// Key names the argument ("p", "key", "target", ...).
	Key string
	// Val is the argument value; for boolean fields it is 0 or 1.
	Val int64
	// IsBool renders the value as false/true instead of a number.
	IsBool bool
}

// I builds an integer field.
func I(key string, val int64) Field { return Field{Key: key, Val: val} }

// B builds a boolean field.
func B(key string, val bool) Field {
	f := Field{Key: key, IsBool: true}
	if val {
		f.Val = 1
	}
	return f
}

// String renders the field as "key=value".
func (f Field) String() string {
	if f.IsBool {
		return fmt.Sprintf("%s=%v", f.Key, f.Val != 0)
	}
	return fmt.Sprintf("%s=%d", f.Key, f.Val)
}

// FormatNote renders a structured annotation the way Event.Message shows it:
// the key followed by space-separated key=value fields.
func FormatNote(key string, args []Field) string {
	var sb strings.Builder
	sb.WriteString(key)
	for _, f := range args {
		sb.WriteByte(' ')
		sb.WriteString(f.String())
	}
	return sb.String()
}

// inlineFields is the capacity of an Event's inline field array. The widest
// annotation the simulator emits (casfail) carries three fields; anything
// wider falls back to a heap-allocated Args slice.
const inlineFields = 4

// Event is one entry in the log.
type Event struct {
	// Seq is the index of the event in the log. It is assigned by Append
	// and is authoritative: an Event carrying a conflicting nonzero Seq is
	// rejected.
	Seq int
	// Time is the virtual time of the event's processor when it occurred.
	Time int64
	// CPU is the processor on which the event occurred.
	CPU int
	// Proc is the process concerned, or -1.
	Proc int
	// ProcName is the human-readable name of the process, if any.
	ProcName string
	// Kind classifies the event.
	Kind Kind
	// Msg is optional pre-rendered annotation text. The simulator no longer
	// fills it (rendering is lazy; see Message); it remains for events
	// constructed by hand and for compatibility with external producers.
	Msg string
	// Key is the structured annotation key ("announce", "help", "splice",
	// ...) for annotations emitted through Env.Note; empty for scheduler
	// events.
	Key string
	// Args are structured annotation arguments supplied at construction.
	// Append moves them into the inline array when they fit; read fields
	// through Fields or Arg, never through Args directly.
	Args []Field

	// argv/argn are the inline storage for up to inlineFields arguments,
	// filled by SetFields (emission hot path) or by Append normalizing
	// Args. Keeping the fields inside the Event means a structured note
	// allocates nothing.
	argv [inlineFields]Field
	argn uint8
}

// SetFields copies args into the event's inline field array (no allocation
// when they fit), falling back to a cloned Args slice for oversized notes.
// The caller's slice is never retained, so stack-allocated argument slices
// stay on the stack.
func (ev *Event) SetFields(args []Field) {
	if len(args) <= inlineFields {
		ev.argn = uint8(copy(ev.argv[:], args))
		ev.Args = nil
		return
	}
	ev.Args = append([]Field(nil), args...)
	ev.argn = 0
}

// Fields returns the structured annotation arguments, wherever they are
// stored. The returned slice must not be modified.
func (ev *Event) Fields() []Field {
	if ev.argn > 0 {
		return ev.argv[:ev.argn]
	}
	return ev.Args
}

// Message returns the event's rendered text: Msg when pre-rendered, or the
// FormatNote rendering of (Key, fields) computed on demand. Scheduler
// events (empty Key, empty Msg) render as "".
func (ev *Event) Message() string {
	if ev.Msg != "" || ev.Key == "" {
		return ev.Msg
	}
	return FormatNote(ev.Key, ev.Fields())
}

// Arg returns the value of the named structured argument and whether it is
// present.
func (ev Event) Arg(key string) (int64, bool) {
	for _, f := range ev.Fields() {
		if f.Key == key {
			return f.Val, true
		}
	}
	return 0, false
}

// logChunk is the number of events per storage chunk. Chunked storage keeps
// Append from ever copying the log: growing costs one fixed-size allocation
// every logChunk events and nothing else.
const logChunk = 4096

// Log is an append-only event log. The zero value is ready to use.
type Log struct {
	chunks [][]Event
	n      int
	// flat caches the flattened Events() view; nil after any Append.
	flat []Event
	// lastTime tracks the last appended Time per CPU so Append can assert
	// per-processor monotonicity (processor clocks never run backwards);
	// math.MinInt64 marks a CPU with no events yet.
	lastTime []int64
}

// Append adds an event, assigning its sequence number. The assigned Seq is
// authoritative: passing an event whose Seq is already set to a different
// position panics, as does an event whose Time precedes an earlier event on
// the same CPU — either indicates a corrupted emission path.
func (l *Log) Append(ev Event) {
	if ev.Seq != 0 && ev.Seq != l.n {
		panic(fmt.Sprintf("trace: Append with stale Seq %d at position %d", ev.Seq, l.n))
	}
	if ev.CPU >= 0 {
		for ev.CPU >= len(l.lastTime) {
			l.lastTime = append(l.lastTime, math.MinInt64)
		}
		if last := l.lastTime[ev.CPU]; last != math.MinInt64 && ev.Time < last {
			panic(fmt.Sprintf("trace: time moved backwards on cpu%d: %d after %d (event %q)",
				ev.CPU, ev.Time, last, ev.Kind))
		}
		l.lastTime[ev.CPU] = ev.Time
	}
	if ev.argn == 0 && len(ev.Args) > 0 && len(ev.Args) <= inlineFields {
		ev.argn = uint8(copy(ev.argv[:], ev.Args))
		ev.Args = nil
	}
	ev.Seq = l.n
	if len(l.chunks) == 0 || len(l.chunks[len(l.chunks)-1]) == logChunk {
		l.chunks = append(l.chunks, make([]Event, 0, logChunk))
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunks[last], ev)
	l.n++
	l.flat = nil
}

// Events returns the recorded events as one flat slice. The slice is built
// on first call and cached until the next Append; callers must not modify
// it. Prefer the iteration helpers (Find, Annotations, WriteTo) when a flat
// view is not required.
func (l *Log) Events() []Event {
	if l.flat == nil && l.n > 0 {
		flat := make([]Event, 0, l.n)
		for _, c := range l.chunks {
			flat = append(flat, c...)
		}
		l.flat = flat
	}
	return l.flat
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return l.n }

// At returns a pointer to the event at sequence position seq. It panics on
// an out-of-range position.
func (l *Log) At(seq int) *Event {
	if seq < 0 || seq >= l.n {
		panic(fmt.Sprintf("trace: At(%d) out of range [0,%d)", seq, l.n))
	}
	return &l.chunks[seq/logChunk][seq%logChunk]
}

// Annotations returns only the KindAnnotate events, in order.
func (l *Log) Annotations() []Event {
	var out []Event
	for _, c := range l.chunks {
		for i := range c {
			if c[i].Kind == KindAnnotate {
				out = append(out, c[i])
			}
		}
	}
	return out
}

// Find returns the sequence number of the first event at or after seq whose
// kind matches and whose message contains substr (substr is ignored for
// non-annotation kinds when empty). It returns -1 if no event matches.
func (l *Log) Find(seq int, kind Kind, substr string) int {
	for i := seq; i < l.n; i++ {
		ev := l.At(i)
		if ev.Kind != kind {
			continue
		}
		if substr != "" && !strings.Contains(ev.Message(), substr) {
			continue
		}
		return i
	}
	return -1
}

// FindNote is Find for annotations: first annotation at or after seq whose
// message contains substr.
func (l *Log) FindNote(seq int, substr string) int {
	return l.Find(seq, KindAnnotate, substr)
}

// NoteCounts returns, per process name, how many annotations contain
// substr. It lets tests cross-check the run report's helping counters
// against the semantic trace (e.g. substr "help p=0" counts the helpers of
// process slot 0 in the Figure 2 scenario).
func (l *Log) NoteCounts(substr string) map[string]int {
	out := make(map[string]int)
	for _, c := range l.chunks {
		for i := range c {
			ev := &c[i]
			if ev.Kind != KindAnnotate || !strings.Contains(ev.Message(), substr) {
				continue
			}
			name := ev.ProcName
			if name == "" && ev.Proc >= 0 {
				name = fmt.Sprintf("p%d", ev.Proc)
			}
			out[name]++
		}
	}
	return out
}

// WriteTo pretty-prints the log, one event per line, in the style
// cmd/wftrace -export gantt uses to render the paper's Figure 2.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, c := range l.chunks {
		for i := range c {
			ev := &c[i]
			name := ev.ProcName
			if name == "" && ev.Proc >= 0 {
				name = fmt.Sprintf("p%d", ev.Proc)
			}
			var line string
			if ev.Kind == KindAnnotate {
				line = fmt.Sprintf("%6d  cpu%d t=%-6d %-10s %s\n", ev.Seq, ev.CPU, ev.Time, name, ev.Message())
			} else {
				line = fmt.Sprintf("%6d  cpu%d t=%-6d %-10s [%s]\n", ev.Seq, ev.CPU, ev.Time, name, ev.Kind)
			}
			k, err := io.WriteString(w, line)
			n += int64(k)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// String renders the log as WriteTo would.
func (l *Log) String() string {
	var sb strings.Builder
	if _, err := l.WriteTo(&sb); err != nil {
		// strings.Builder never fails; satisfy errcheck-style review.
		return sb.String()
	}
	return sb.String()
}
