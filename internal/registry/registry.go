// Package registry is the repo's single object-descriptor layer: one
// Descriptor per wait-free object (and per evaluation baseline) carrying
// everything the driver layers need — a constructor over (sim, Config), a
// deterministic operation generator, a sequential model for linearizability
// checking, and the object's named-scenario recipe. internal/scenario,
// internal/workload, cmd/wfbench, cmd/wfcheck and cmd/wftrace all drive
// through it, so adding an object means writing one descriptor, not
// touching five tools.
//
// The paper's Section 4 claim is per-object-family ("queues, stacks, and
// hash tables are just as straightforward to implement as linked lists");
// the registry is that claim made executable: every object answers the same
// surface, and the completeness test pins that every package under
// internal/core/ is registered.
package registry

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sched"
	"repro/internal/shmem"

	"repro/internal/helping"
	"repro/internal/prim"
)

// Family classifies a descriptor by its scheduling model.
type Family int

// The three families.
const (
	// FamilyUni objects are the incremental-helping uniprocessor objects
	// (Figures 3 and 5 and their Section 4 extensions).
	FamilyUni Family = iota + 1
	// FamilyMulti objects are the ring-helping multiprocessor objects
	// (Figures 6 and 7 and their Section 4 extensions).
	FamilyMulti
	// FamilyBaseline objects are the evaluation baselines (lock-free,
	// lock-based, universal construction).
	FamilyBaseline
)

func (f Family) String() string {
	switch f {
	case FamilyUni:
		return "uni"
	case FamilyMulti:
		return "multi"
	case FamilyBaseline:
		return "baseline"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// ModelKind selects the object's abstract sequential specification; the op
// generator and the sequential models key off it.
type ModelKind int

// The model kinds.
const (
	// ModelSorted is a sorted key set (lists, hash tables, sorted-set
	// baselines).
	ModelSorted ModelKind = iota + 1
	// ModelFIFO is a queue.
	ModelFIFO
	// ModelLIFO is a stack.
	ModelLIFO
	// ModelWords is an MWCAS word array driven by read-modify-write
	// increment transactions.
	ModelWords
)

// OpCode identifies one abstract operation.
type OpCode int

// The operation codes. Which codes an object accepts follows from its
// ModelKind.
const (
	OpInsert OpCode = iota + 1
	OpDelete
	OpSearch
	OpEnqueue
	OpDequeue
	OpPush
	OpPop
	// OpMWCAS is a read-modify-write transaction: read the words at
	// Words, MWCAS them to value+Delta each. It fails (OK=false) when a
	// concurrent transaction moved any word between the reads and the
	// MWCAS.
	OpMWCAS
)

func (c OpCode) String() string {
	switch c {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpSearch:
		return "search"
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	case OpPush:
		return "push"
	case OpPop:
		return "pop"
	case OpMWCAS:
		return "mwcas"
	}
	return fmt.Sprintf("OpCode(%d)", int(c))
}

// Op is one abstract operation instance.
type Op struct {
	Code OpCode
	// Key and Val parameterize the keyed and value-carrying codes.
	Key, Val uint64
	// Words indexes into the instance's application words (OpMWCAS).
	Words []int
	// Delta is the OpMWCAS increment.
	Delta uint64
}

// Result is the outcome of one operation.
type Result struct {
	// OK is the operation's boolean result (insert/delete/search hit,
	// nonempty dequeue/pop, MWCAS success). Unconditional operations
	// (enqueue, push) always report true.
	OK bool
	// Val is the value observed: the dequeued/popped element, or the
	// first word's pre-transaction value for OpMWCAS.
	Val uint64
}

// List is the op surface shared by the list family — the wait-free lists,
// the hash tables, and the lock-free / lock-based baselines. It is the
// interface internal/workload measures through.
type List interface {
	Insert(e shmem.Ctx, key, val uint64) bool
	Delete(e shmem.Ctx, key uint64) bool
	Search(e shmem.Ctx, key uint64) bool
	Snapshot() []uint64
}

// Backend is the execution substrate a descriptor constructs an instance
// on: the memory words come from Memory(), the helping-ring width bound
// from Processors(). The simulator backend additionally exposes its Sim for
// the white-box checkers (Config.Check); the native backend returns nil
// there, and Build rejects Check off-simulator.
type Backend interface {
	// Memory returns the backend's shared memory (allocation surface).
	Memory() shmem.Memory
	// Processors returns the number of processors (simulator) or shards
	// (native backend) available to the helping ring.
	Processors() int
	// Sim returns the simulation when this backend is the simulator, or
	// nil on any other backend.
	Sim() *sched.Sim
}

// simBackend adapts *sched.Sim to Backend.
type simBackend struct{ sim *sched.Sim }

func (b simBackend) Memory() shmem.Memory { return b.sim.Mem() }
func (b simBackend) Processors() int      { return b.sim.Processors() }
func (b simBackend) Sim() *sched.Sim      { return b.sim }

// SimBackend wraps a simulation as a construction Backend.
func SimBackend(sim *sched.Sim) Backend { return simBackend{sim: sim} }

// Config parameterizes an instance of any registered object; irrelevant
// fields are ignored by objects that don't use them. The zero value gets
// usable defaults from Normalize.
type Config struct {
	// Processors is P, the helping-ring width (multiprocessor family;
	// defaults to the simulation's processor count).
	Processors int
	// Procs is N, the number of process slots that may operate on the
	// object.
	Procs int
	// Capacity is the node arena size (node-based objects).
	Capacity int
	// Buckets is K (hash tables).
	Buckets int
	// Width is B, the per-operation word limit (MWCAS).
	Width int
	// Words is the number of application words to allocate (MWCAS).
	Words int
	// Initial optionally initializes the application words (MWCAS).
	Initial []uint64
	// SeedKeys pre-loads keyed structures (ascending for lists).
	SeedKeys []uint64
	// CC, Mode, Stride, OneRound configure the multiprocessor helping
	// machinery.
	CC       prim.Impl
	Mode     helping.Mode
	Stride   int
	OneRound bool
	// Check arms the object's linearizability checker; Apply then drives
	// it and CheckErr returns its verdict.
	Check bool
}

// ErrProcConfig is the single rejection for invalid processor/process
// combinations, shared by every object and facade constructor.
var ErrProcConfig = errors.New("invalid Processors/Procs configuration")

// Instance is a constructed object answering the registry op model.
type Instance interface {
	// Apply performs one operation as process slot. With Config.Check it
	// also drives the linearizability checker. An OpMWCAS naming no word,
	// or a word outside the instance, is rejected (OK=false) untouched.
	Apply(e shmem.Ctx, slot int, op Op) Result
	// Snapshot returns the canonical quiescent state (sorted keys, queue
	// front-to-back, stack top-down, MWCAS word values).
	Snapshot() []uint64
	// Underlying exposes the concrete object for callers that need the
	// full surface (the facade constructors).
	Underlying() any
	// CheckErr finalizes the armed checker and returns its verdict; it
	// is nil when Config.Check was unset.
	CheckErr() error
}

// WordHolder is implemented by MWCAS instances, whose constructor also
// allocates the application words.
type WordHolder interface {
	AppWords() []shmem.Addr
}

// ScenarioSpec is the object's named-run recipe for internal/scenario and
// cmd/wftrace: small fixed op scripts sized so a human can read the trace.
// Uniprocessor scripts are the Figure 2 cast (victim, two adversaries);
// multiprocessor scripts are one worker per processor.
type ScenarioSpec struct {
	// Capacity, Buckets, Words, Width, Stride and SeedKeys size the
	// instance. Stride is explicit because the scenarios pin the figures'
	// literal checkpoint-every-node traversal, not the measured default.
	Capacity     int
	Buckets      int
	Words, Width int
	Stride       int
	SeedKeys     []uint64
	// Scripts are the per-process op sequences (uni: victim, adv1, adv2;
	// multi: w0, w1).
	Scripts [][]Op
}

// Descriptor describes one registered object.
type Descriptor struct {
	// Name is the registry key (the package basename: "uniqueue").
	Name string
	// Pkg is the package directory under internal/ ("core/uniqueue");
	// the completeness test matches it against the filesystem.
	Pkg string
	// Family is the scheduling family.
	Family Family
	// Model is the abstract sequential specification.
	Model ModelKind
	// UniPeer names the uniprocessor counterpart of a multiprocessor
	// object ("" if none); the differential tests pair objects by it.
	UniPeer string
	// Scenario is the named-run recipe.
	Scenario ScenarioSpec
	// New constructs an instance on the given backend. Callers go through
	// Build/BuildOn, which normalize and validate cfg first.
	New func(b Backend, cfg Config) (Instance, error)
}

var byName = map[string]*Descriptor{}

func register(d *Descriptor) {
	if _, dup := byName[d.Name]; dup {
		panic("registry: duplicate descriptor " + d.Name)
	}
	byName[d.Name] = d
}

// Lookup returns the named descriptor.
func Lookup(name string) (*Descriptor, error) {
	d, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown object %q (have %v)", name, Names())
	}
	return d, nil
}

// Names returns every registered name, sorted.
func Names() []string {
	out := make([]string, 0, len(byName))
	for name := range byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CoreNames returns the registered core objects (uni + multi families),
// sorted.
func CoreNames() []string {
	var out []string
	for name, d := range byName {
		if d.Family != FamilyBaseline {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// All returns every descriptor, sorted by name.
func All() []*Descriptor {
	names := Names()
	out := make([]*Descriptor, len(names))
	for i, n := range names {
		out[i] = byName[n]
	}
	return out
}

// Normalize applies the shared defaults to cfg and validates the
// processor/process combination; every constructor path (registry, facade,
// workload) funnels through it, so an invalid combination is rejected with
// the one ErrProcConfig message everywhere.
func (d *Descriptor) Normalize(b Backend, cfg *Config) error {
	if cfg.Capacity == 0 {
		cfg.Capacity = 1024
	}
	if cfg.Procs == 0 {
		cfg.Procs = 1
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 16
	}
	if cfg.Width == 0 {
		cfg.Width = 4
	}
	if d.Model == ModelWords {
		if cfg.Words < 0 {
			return fmt.Errorf("%s: Words=%d (need Words >= 1, or 0 for the default)", d.Name, cfg.Words)
		}
		cfg.Words = appWords(*cfg)
	}
	switch d.Family {
	case FamilyUni:
		// Uniprocessor objects have no ring; P is definitionally 1.
		cfg.Processors = 1
	default:
		if cfg.Processors == 0 {
			cfg.Processors = b.Processors()
		}
	}
	if cfg.Procs < 1 || cfg.Processors < 1 ||
		(d.Family == FamilyMulti && cfg.Processors > b.Processors()) {
		return fmt.Errorf("%s: %w: Processors=%d Procs=%d (need Procs >= 1 and 1 <= Processors <= the backend's %d)",
			d.Name, ErrProcConfig, cfg.Processors, cfg.Procs, b.Processors())
	}
	if b.Sim() == nil {
		if cfg.Check {
			return fmt.Errorf("%s: Config.Check drives the white-box checkers, which observe simulated memory; off-simulator use the black-box engine (internal/linz) instead", d.Name)
		}
		// Real hardware has no CCAS instruction (the Figure 8 premise):
		// default to the tagged software construction and refuse the
		// simulator-only atomic one.
		if cfg.CC.IsZero() {
			cfg.CC = prim.Tagged()
		} else if cfg.CC.IsNative() {
			return fmt.Errorf("%s: prim.Native is the simulator's atomic CCAS; off-simulator use a software construction (prim.Tagged or prim.Delayed)", d.Name)
		}
	}
	return nil
}

// Build normalizes cfg and constructs an instance of the named object
// inside sim.
func Build(sim *sched.Sim, name string, cfg Config) (Instance, error) {
	return BuildOn(SimBackend(sim), name, cfg)
}

// BuildOn normalizes cfg and constructs an instance of the named object on
// an arbitrary backend.
func BuildOn(b Backend, name string, cfg Config) (Instance, error) {
	d, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := d.Normalize(b, &cfg); err != nil {
		return nil, err
	}
	return d.New(b, cfg)
}
