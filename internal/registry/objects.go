package registry

// The descriptor table: the ten core objects and the four evaluation
// baselines, each answering the registry op model through a small adapter.
// The adapters own the construction order the objects require (arena, then
// object, then seeding, then freeze) and, under Config.Check, wire the
// object's linearizability checker so Apply drives it.

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/baseline/gclist"
	"repro/internal/baseline/herlihy"
	"repro/internal/baseline/locklist"
	"repro/internal/baseline/valois"
	"repro/internal/check"
	"repro/internal/core/multihash"
	"repro/internal/core/multilist"
	"repro/internal/core/multimwcas"
	"repro/internal/core/multiqueue"
	"repro/internal/core/multistack"
	"repro/internal/core/unihash"
	"repro/internal/core/unilist"
	"repro/internal/core/unimwcas"
	"repro/internal/core/uniqueue"
	"repro/internal/core/unistack"
	"repro/internal/shmem"
)

type applyFn func(e shmem.Ctx, slot int, op Op) Result

// instance is the one concrete Instance implementation; descriptors fill
// in the closures.
type instance struct {
	under    any
	apply    applyFn
	snapshot func() []uint64
	words    []shmem.Addr
	finish   func() error
}

func (in *instance) Apply(e shmem.Ctx, slot int, op Op) Result { return in.apply(e, slot, op) }
func (in *instance) Snapshot() []uint64                        { return in.snapshot() }
func (in *instance) Underlying() any                           { return in.under }
func (in *instance) AppWords() []shmem.Addr                    { return in.words }
func (in *instance) CheckErr() error {
	if in.finish == nil {
		return nil
	}
	return in.finish()
}

// listApply adapts the shared list surface to the op model.
func listApply(l List) applyFn {
	return func(e shmem.Ctx, slot int, op Op) Result {
		switch op.Code {
		case OpInsert:
			return Result{OK: l.Insert(e, op.Key, op.Val)}
		case OpDelete:
			return Result{OK: l.Delete(e, op.Key)}
		case OpSearch:
			return Result{OK: l.Search(e, op.Key)}
		}
		panic("registry: list object got " + op.Code.String())
	}
}

func listKind(c OpCode) uint64 {
	switch c {
	case OpInsert:
		return check.ListIns
	case OpDelete:
		return check.ListDel
	default:
		return check.ListSch
	}
}

// multiListChecked arms the structural-event checker shared by the
// multiprocessor list, the hash tables' bucket chains, and the lock-free
// baselines.
func multiListChecked(l List, chk *check.MultiListChecker) (applyFn, func() error) {
	base := listApply(l)
	apply := func(e shmem.Ctx, slot int, op Op) Result {
		chk.BeginOp(slot, listKind(op.Code), op.Key)
		r := base(e, slot, op)
		chk.EndOp(slot, r.OK)
		return r
	}
	return apply, func() error { chk.Finish(); return chk.Err() }
}

// simMem returns the simulated memory behind b for the white-box checkers.
// Normalize rejects Config.Check off-simulator, so b.Sim() is non-nil on
// every path that reaches here.
func simMem(b Backend) *shmem.Mem { return b.Sim().Mem() }

func newArena(b Backend, cfg Config) (*arena.Arena, error) {
	return arena.New(b.Memory(), cfg.Capacity, cfg.Procs)
}

func init() {
	register(&Descriptor{
		Name: "unilist", Pkg: "core/unilist", Family: FamilyUni, Model: ModelSorted,
		Scenario: ScenarioSpec{
			Capacity: 32,
			Scripts: [][]Op{
				{{Code: OpInsert, Key: 10, Val: 1}},
				{{Code: OpInsert, Key: 20, Val: 2}},
				{{Code: OpInsert, Key: 30, Val: 3}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			l, err := unilist.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}
			if cfg.Check {
				chk := check.NewUniListChecker(l, simMem(b), cfg.Procs)
				base := listApply(l)
				in.apply = func(e shmem.Ctx, slot int, op Op) Result {
					r := base(e, slot, op)
					chk.EndOp(slot, r.OK)
					return r
				}
				in.finish = func() error { chk.Finish(); return chk.Err() }
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "uniqueue", Pkg: "core/uniqueue", Family: FamilyUni, Model: ModelFIFO,
		Scenario: ScenarioSpec{
			Capacity: 32,
			Scripts: [][]Op{
				{{Code: OpEnqueue, Val: 10}},
				{{Code: OpEnqueue, Val: 20}},
				{{Code: OpDequeue}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			q, err := uniqueue.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			ar.Freeze()
			apply := func(e shmem.Ctx, slot int, op Op) Result {
				switch op.Code {
				case OpEnqueue:
					q.Enqueue(e, op.Val)
					return Result{OK: true}
				case OpDequeue:
					v, ok := q.Dequeue(e)
					return Result{OK: ok, Val: v}
				}
				panic("registry: uniqueue got " + op.Code.String())
			}
			in := &instance{under: q, snapshot: q.Snapshot, apply: apply}
			if cfg.Check {
				// Incremental helping totally orders operations by
				// announce; replay them against the FIFO model.
				model := &fifoModel{}
				var objBuf, modBuf []uint64 // reused across invariant checks
				chk := check.NewSerialChecker(simMem(b), q.Engine().AnnPidAddr(), cfg.Procs,
					func(p int) bool {
						node, opc := q.PeekPar(p)
						if opc == 1 {
							val := simMem(b).Peek(ar.ValAddr(arena.Ref(node)))
							return model.Apply(Op{Code: OpEnqueue, Val: val}).OK
						}
						return model.Apply(Op{Code: OpDequeue}).OK
					},
					func() error {
						objBuf = appendSnap(q)(objBuf[:0])
						modBuf = appendSnap(model)(modBuf[:0])
						return check.SliceEqual(objBuf, modBuf)
					})
				in.apply = func(e shmem.Ctx, slot int, op Op) Result {
					r := apply(e, slot, op)
					chk.EndOp(slot, r.OK)
					return r
				}
				in.finish = func() error { chk.Finish(); return chk.Err() }
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "unistack", Pkg: "core/unistack", Family: FamilyUni, Model: ModelLIFO,
		Scenario: ScenarioSpec{
			Capacity: 32,
			Scripts: [][]Op{
				{{Code: OpPush, Val: 10}},
				{{Code: OpPush, Val: 20}},
				{{Code: OpPop}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			st, err := unistack.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			ar.Freeze()
			apply := func(e shmem.Ctx, slot int, op Op) Result {
				switch op.Code {
				case OpPush:
					st.Push(e, op.Val)
					return Result{OK: true}
				case OpPop:
					v, ok := st.Pop(e)
					return Result{OK: ok, Val: v}
				}
				panic("registry: unistack got " + op.Code.String())
			}
			in := &instance{under: st, snapshot: st.Snapshot, apply: apply}
			if cfg.Check {
				model := &lifoModel{}
				var objBuf, modBuf []uint64 // reused across invariant checks
				chk := check.NewSerialChecker(simMem(b), st.Engine().AnnPidAddr(), cfg.Procs,
					func(p int) bool {
						node, opc := st.PeekPar(p)
						if opc == 1 {
							val := simMem(b).Peek(ar.ValAddr(arena.Ref(node)))
							return model.Apply(Op{Code: OpPush, Val: val}).OK
						}
						return model.Apply(Op{Code: OpPop}).OK
					},
					func() error {
						objBuf = appendSnap(st)(objBuf[:0])
						modBuf = appendSnap(model)(modBuf[:0])
						return check.SliceEqual(objBuf, modBuf)
					})
				in.apply = func(e shmem.Ctx, slot int, op Op) Result {
					r := apply(e, slot, op)
					chk.EndOp(slot, r.OK)
					return r
				}
				in.finish = func() error { chk.Finish(); return chk.Err() }
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "unihash", Pkg: "core/unihash", Family: FamilyUni, Model: ModelSorted,
		Scenario: ScenarioSpec{
			Capacity: 64, Buckets: 4, SeedKeys: []uint64{40, 41},
			Scripts: [][]Op{
				{{Code: OpInsert, Key: 10, Val: 1}},
				{{Code: OpInsert, Key: 20, Val: 2}},
				{{Code: OpDelete, Key: 40}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			tb, err := unihash.New(b.Memory(), ar, cfg.Procs, cfg.Buckets)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := tb.SeedKeys(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: tb, snapshot: tb.Snapshot, apply: listApply(tb)}
			if cfg.Check {
				model := Lookup0("unihash").NewModel(cfg)
				var objBuf, modBuf []uint64 // reused across invariant checks
				chk := check.NewSerialChecker(simMem(b), tb.Engine().AnnPidAddr(), cfg.Procs,
					func(p int) bool {
						_, key, opc := tb.PeekPar(p)
						switch opc {
						case 1:
							return model.Apply(Op{Code: OpInsert, Key: key}).OK
						case 2:
							return model.Apply(Op{Code: OpDelete, Key: key}).OK
						default:
							return model.Apply(Op{Code: OpSearch, Key: key}).OK
						}
					},
					func() error {
						objBuf = appendSnap(tb)(objBuf[:0])
						modBuf = appendSnap(model)(modBuf[:0])
						return check.SliceEqual(objBuf, modBuf)
					})
				base := listApply(tb)
				in.apply = func(e shmem.Ctx, slot int, op Op) Result {
					r := base(e, slot, op)
					chk.EndOp(slot, r.OK)
					return r
				}
				in.finish = func() error { chk.Finish(); return chk.Err() }
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "unimwcas", Pkg: "core/unimwcas", Family: FamilyUni, Model: ModelWords,
		Scenario: ScenarioSpec{
			Words: 3, Width: 4,
			Scripts: [][]Op{
				{{Code: OpMWCAS, Words: []int{0, 1, 2}, Delta: 1}},
				{{Code: OpMWCAS, Words: []int{0, 1}, Delta: 2}},
				{{Code: OpMWCAS, Words: []int{2}, Delta: 3}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			obj, err := unimwcas.New(b.Memory(), cfg.Procs, cfg.Width)
			if err != nil {
				return nil, err
			}
			words, err := allocWords(b.Memory(), cfg.Words)
			if err != nil {
				return nil, err
			}
			for i, w := range words {
				var v uint64
				if i < len(cfg.Initial) {
					v = cfg.Initial[i]
				}
				if v > uint64(^uint32(0)) {
					return nil, fmt.Errorf("registry: initial value %#x exceeds the uniprocessor MWCAS's 32-bit value field", v)
				}
				obj.InitWord(w, uint32(v))
			}
			var chk *check.MWCASChecker
			if cfg.Check {
				chk = check.NewMWCASChecker(obj, simMem(b), words)
			}
			in := &instance{under: obj, words: words}
			in.snapshot = func() []uint64 {
				out := make([]uint64, len(words))
				for i, w := range words {
					out[i] = uint64(unimwcas.Unpack(b.Memory().Peek(w)).Val)
				}
				return out
			}
			// Per-slot scratch, reused across applies: procs yield inside
			// MWCAS, so another slot's apply may interleave mid-operation —
			// the buffers must not be shared across slots.
			type mwcasScratch struct {
				addrs      []shmem.Addr
				olds, news []uint32
			}
			scratch := make([]mwcasScratch, cfg.Procs)
			in.apply = func(e shmem.Ctx, slot int, op Op) Result {
				if op.Code != OpMWCAS {
					panic("registry: unimwcas got " + op.Code.String())
				}
				if !wordsInRange(op.Words, len(words)) {
					return Result{}
				}
				sc := &scratch[slot]
				if cap(sc.addrs) < len(op.Words) {
					sc.addrs = make([]shmem.Addr, len(op.Words))
					sc.olds = make([]uint32, len(op.Words))
					sc.news = make([]uint32, len(op.Words))
				}
				addrs := sc.addrs[:len(op.Words)]
				olds := sc.olds[:len(op.Words)]
				news := sc.news[:len(op.Words)]
				for i, wi := range op.Words {
					addrs[i] = words[wi]
					if chk != nil {
						rw := chk.BeginRead(addrs[i])
						olds[i] = obj.Read(e, addrs[i])
						chk.EndRead(rw, olds[i])
					} else {
						olds[i] = obj.Read(e, addrs[i])
					}
					news[i] = olds[i] + uint32(op.Delta)
				}
				if chk != nil {
					chk.BeginOp(slot, addrs, olds, news)
				}
				ok := obj.MWCAS(e, addrs, olds, news)
				if chk != nil {
					chk.EndOp(slot, ok)
				}
				return Result{OK: ok, Val: uint64(olds[0])}
			}
			if chk != nil {
				in.finish = chk.Err
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multilist", Pkg: "core/multilist", Family: FamilyMulti, Model: ModelSorted,
		UniPeer: "unilist",
		Scenario: ScenarioSpec{
			Capacity: 64, SeedKeys: []uint64{5, 50}, Stride: 1,
			Scripts: [][]Op{
				{{Code: OpInsert, Key: 10, Val: 1}, {Code: OpInsert, Key: 20, Val: 2}},
				{{Code: OpInsert, Key: 15, Val: 3}, {Code: OpInsert, Key: 25, Val: 4}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			stride := cfg.Stride
			if stride == 0 {
				stride = 100
			}
			l, err := multilist.New(b.Memory(), ar, multilist.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, CC: cfg.CC,
				Mode: cfg.Mode, Stride: stride, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}
			if cfg.Check {
				in.apply, in.finish = multiListChecked(l, check.NewMultiListChecker(l, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multiqueue", Pkg: "core/multiqueue", Family: FamilyMulti, Model: ModelFIFO,
		UniPeer: "uniqueue",
		Scenario: ScenarioSpec{
			Capacity: 64,
			Scripts: [][]Op{
				{{Code: OpEnqueue, Val: 10}, {Code: OpEnqueue, Val: 20}},
				{{Code: OpDequeue}, {Code: OpDequeue}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			q, err := multiqueue.New(b.Memory(), ar, multiqueue.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, CC: cfg.CC,
				Mode: cfg.Mode, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			ar.Freeze()
			var chk *check.FIFOChecker
			if cfg.Check {
				chk = check.NewFIFOChecker(q, simMem(b))
			}
			in := &instance{under: q, snapshot: q.Snapshot}
			in.apply = func(e shmem.Ctx, slot int, op Op) Result {
				switch op.Code {
				case OpEnqueue:
					if chk != nil {
						chk.BeginEnq(slot, op.Val)
					}
					q.Enqueue(e, op.Val)
					if chk != nil {
						chk.EndEnq(slot)
					}
					return Result{OK: true}
				case OpDequeue:
					if chk != nil {
						chk.BeginDeq(slot)
					}
					v, ok := q.Dequeue(e)
					if chk != nil {
						chk.EndDeq(slot, v, ok)
					}
					return Result{OK: ok, Val: v}
				}
				panic("registry: multiqueue got " + op.Code.String())
			}
			if chk != nil {
				in.finish = func() error { chk.Finish(); return chk.Err() }
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multistack", Pkg: "core/multistack", Family: FamilyMulti, Model: ModelLIFO,
		UniPeer: "unistack",
		Scenario: ScenarioSpec{
			Capacity: 64,
			Scripts: [][]Op{
				{{Code: OpPush, Val: 10}, {Code: OpPush, Val: 20}},
				{{Code: OpPop}, {Code: OpPop}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			st, err := multistack.New(b.Memory(), ar, multistack.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, CC: cfg.CC,
				Mode: cfg.Mode, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			ar.Freeze()
			var chk *check.LIFOChecker
			if cfg.Check {
				chk = check.NewLIFOChecker(st, simMem(b))
			}
			in := &instance{under: st, snapshot: st.Snapshot}
			in.apply = func(e shmem.Ctx, slot int, op Op) Result {
				switch op.Code {
				case OpPush:
					if chk != nil {
						chk.BeginPush(slot, op.Val)
					}
					st.Push(e, op.Val)
					if chk != nil {
						chk.EndPush(slot)
					}
					return Result{OK: true}
				case OpPop:
					if chk != nil {
						chk.BeginPop(slot)
					}
					v, ok := st.Pop(e)
					if chk != nil {
						chk.EndPop(slot, v, ok)
					}
					return Result{OK: ok, Val: v}
				}
				panic("registry: multistack got " + op.Code.String())
			}
			if chk != nil {
				in.finish = func() error { chk.Finish(); return chk.Err() }
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multihash", Pkg: "core/multihash", Family: FamilyMulti, Model: ModelSorted,
		UniPeer: "unihash",
		Scenario: ScenarioSpec{
			Capacity: 64, Buckets: 4, SeedKeys: []uint64{40, 41},
			Scripts: [][]Op{
				{{Code: OpInsert, Key: 10, Val: 1}, {Code: OpInsert, Key: 20, Val: 2}},
				{{Code: OpDelete, Key: 40}, {Code: OpInsert, Key: 30, Val: 3}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			tb, err := multihash.New(b.Memory(), ar, multihash.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, Buckets: cfg.Buckets,
				CC: cfg.CC, Mode: cfg.Mode, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := tb.SeedKeys(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: tb, snapshot: tb.Snapshot, apply: listApply(tb)}
			if cfg.Check {
				in.apply, in.finish = multiListChecked(tb, check.NewMultiListChecker(tb, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multimwcas", Pkg: "core/multimwcas", Family: FamilyMulti, Model: ModelWords,
		UniPeer: "unimwcas",
		Scenario: ScenarioSpec{
			Words: 3, Width: 4,
			Scripts: [][]Op{
				{{Code: OpMWCAS, Words: []int{0, 1}, Delta: 1}, {Code: OpMWCAS, Words: []int{1, 2}, Delta: 1}},
				{{Code: OpMWCAS, Words: []int{0, 2}, Delta: 2}, {Code: OpMWCAS, Words: []int{0, 1}, Delta: 3}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			obj, err := multimwcas.New(b.Memory(), multimwcas.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, Width: cfg.Width,
				CC: cfg.CC, Mode: cfg.Mode, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			words, err := allocWords(b.Memory(), cfg.Words)
			if err != nil {
				return nil, err
			}
			for i, w := range words {
				var v uint64
				if i < len(cfg.Initial) {
					v = cfg.Initial[i]
				}
				obj.InitWord(w, v)
			}
			var chk *check.MultiMWCASChecker
			if cfg.Check {
				chk = check.NewMultiMWCASChecker(obj, simMem(b), cfg.Procs, words)
			}
			in := &instance{under: obj, words: words}
			in.snapshot = func() []uint64 {
				out := make([]uint64, len(words))
				for i, w := range words {
					out[i] = obj.Val(w)
				}
				return out
			}
			// Per-slot scratch, reused across applies: procs yield inside
			// MWCAS, so another slot's apply may interleave mid-operation —
			// the buffers must not be shared across slots.
			type mwcasScratch struct {
				addrs      []shmem.Addr
				olds, news []uint64
			}
			scratch := make([]mwcasScratch, cfg.Procs)
			in.apply = func(e shmem.Ctx, slot int, op Op) Result {
				if op.Code != OpMWCAS {
					panic("registry: multimwcas got " + op.Code.String())
				}
				if !wordsInRange(op.Words, len(words)) {
					return Result{}
				}
				sc := &scratch[slot]
				if cap(sc.addrs) < len(op.Words) {
					sc.addrs = make([]shmem.Addr, len(op.Words))
					sc.olds = make([]uint64, len(op.Words))
					sc.news = make([]uint64, len(op.Words))
				}
				addrs := sc.addrs[:len(op.Words)]
				olds := sc.olds[:len(op.Words)]
				news := sc.news[:len(op.Words)]
				for i, wi := range op.Words {
					addrs[i] = words[wi]
					olds[i] = obj.ReadWord(e, addrs[i])
					news[i] = olds[i] + op.Delta
				}
				if chk != nil {
					chk.BeginOp(slot, addrs, olds, news)
				}
				ok := obj.MWCAS(e, addrs, olds, news)
				if chk != nil {
					chk.EndOp(slot, ok)
				}
				return Result{OK: ok, Val: olds[0]}
			}
			if chk != nil {
				in.finish = chk.Err
			}
			return in, nil
		},
	})

	// Baselines. They answer the same op model so the workload harness and
	// report sweeps treat them uniformly; wfcheck's schedule sweeps cover
	// the core objects only (the spin-lock list livelocks by design under
	// priority preemption — that is the paper's motivating failure).
	register(&Descriptor{
		Name: "gclist", Pkg: "baseline/gclist", Family: FamilyBaseline, Model: ModelSorted,
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			l, err := gclist.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}
			if cfg.Check {
				in.apply, in.finish = multiListChecked(l, check.NewMultiListChecker(l, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "valois", Pkg: "baseline/valois", Family: FamilyBaseline, Model: ModelSorted,
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			l, err := valois.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}
			if cfg.Check {
				in.apply, in.finish = multiListChecked(l, check.NewMultiListChecker(l, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "locklist", Pkg: "baseline/locklist", Family: FamilyBaseline, Model: ModelSorted,
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			l, err := locklist.New(b.Memory(), ar)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			return &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}, nil
		},
	})

	register(&Descriptor{
		Name: "herlihy", Pkg: "baseline/herlihy", Family: FamilyBaseline, Model: ModelSorted,
		New: func(b Backend, cfg Config) (Instance, error) {
			if len(cfg.SeedKeys) > 0 {
				return nil, fmt.Errorf("registry: the herlihy universal construction does not support seeding")
			}
			obj, err := herlihy.New(b.Memory(), cfg.Procs, cfg.Capacity, herlihy.SortedSetApply)
			if err != nil {
				return nil, err
			}
			in := &instance{under: obj}
			in.snapshot = func() []uint64 {
				var out []uint64
				for _, v := range obj.PeekState() {
					if v != 0 {
						out = append(out, v)
					}
				}
				sortUint64(out)
				return out
			}
			in.apply = func(e shmem.Ctx, slot int, op Op) Result {
				switch op.Code {
				case OpInsert:
					return Result{OK: obj.Do(e, 1, op.Key) == 1}
				case OpDelete:
					return Result{OK: obj.Do(e, 2, op.Key) == 1}
				case OpSearch:
					return Result{OK: obj.Do(e, 3, op.Key) == 1}
				}
				panic("registry: herlihy got " + op.Code.String())
			}
			return in, nil
		},
	})
}

// Lookup0 is Lookup for callers that know the name is registered.
func Lookup0(name string) *Descriptor {
	d, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return d
}

func allocWords(m shmem.Memory, n int) ([]shmem.Addr, error) {
	if n <= 0 {
		return nil, nil
	}
	base, err := m.Alloc("appwords", n)
	if err != nil {
		return nil, err
	}
	words := make([]shmem.Addr, n)
	for i := range words {
		words[i] = base + shmem.Addr(i)
	}
	return words, nil
}

func sortUint64(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
