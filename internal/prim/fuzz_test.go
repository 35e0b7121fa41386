package prim

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// FuzzCCASTape drives every Figure 8 CCAS construction through an
// arbitrary sequential tape of the four legal word accesses — CCAS,
// protocol Write, version advance, Read — and cross-checks each step
// against the primitive's plain-variable specification: CCAS(v, ver, x,
// old, new) succeeds iff *v == ver and *x == old, and then sets *x to new.
// The constructions hide representation tricks (Tagged's packed counter,
// Delayed's raw CAS) that an adversarial tape is good at poking: the fuzzer
// owns the version guesses, the old-value guesses and the interleaving of
// Writes with CCASes.
func FuzzCCASTape(f *testing.F) {
	f.Add([]byte("\x00\x05\x0a\x14"))
	f.Add([]byte("0123456789abcdef"))
	f.Add([]byte("\x02\x01\x00\x05\x0a\x14\x01\x07\x03\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		for _, impl := range All() {
			impl := impl
			// Reference state: the version word and the managed word as
			// plain integers.
			var refVer, refX uint64 = 0, 10
			s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 64})
			m := s.Mem()
			v := m.MustAlloc("V", 1)
			x := m.MustAlloc("X", 1)
			m.Poke(v, refVer)
			impl.InitWord(m, x, refX)
			s.SpawnAt(0, 0, 1, "tape", func(e *sched.Env) {
				for i := 0; i+1 < len(data); i += 2 {
					op, arg := data[i], uint64(data[i+1])
					switch op % 4 {
					case 0:
						// CCAS with fuzzer-chosen version and old guesses:
						// the low bits of arg decide whether each guess is
						// correct or perturbed.
						ver, old := refVer, refX
						if arg&1 != 0 {
							ver++
						}
						if arg&2 != 0 {
							old++
						}
						val := (arg >> 2) & 0x3f
						got := impl.Exec(e, v, ver, x, old, val)
						want := ver == refVer && old == refX
						if got != want {
							t.Fatalf("%s step %d: CCAS(ver=%d,old=%d,new=%d) = %v, want %v (refVer=%d refX=%d)",
								impl.Name(), i, ver, old, val, got, want, refVer, refX)
						}
						if want {
							refX = val
						}
					case 1:
						impl.Write(e, x, arg)
						refX = arg
					case 2:
						// Advance the version word the way the MWCAS engine
						// does (CAS, then the implementation's post-advance
						// hook).
						if !e.CAS(v, refVer, refVer+1) {
							t.Fatalf("%s step %d: version CAS failed sequentially", impl.Name(), i)
						}
						refVer++
						impl.AfterAdvance(e)
					case 3:
						if got := impl.Read(e, x); got != refX {
							t.Fatalf("%s step %d: Read = %d, want %d", impl.Name(), i, got, refX)
						}
					}
				}
				if got := impl.Logical(e.Load(x)); got != refX {
					t.Fatalf("%s final: Logical(raw) = %d, want %d", impl.Name(), got, refX)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatalf("%s: Run: %v", impl.Name(), err)
			}
		}
	})
}

// FuzzCCASChain checks the constructions under preemption: fuzzer-chosen
// release points interleave three priority-ranked processes that each run a
// read-then-CCAS increment loop (with occasional version advances) on one
// shared word. Every successful CCAS moves the word from the exact value
// the process read to that value plus one, so for ANY schedule the final
// value must equal the total success count — the same conservation law the
// native stress suite uses, here applied to the primitive itself.
func FuzzCCASChain(f *testing.F) {
	for _, seed := range chainSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		for _, impl := range All() {
			s, x, wins := chainSim(impl, impl.Exec, data, sched.Config{})
			if err := s.Run(); err != nil {
				t.Fatalf("%s: Run: %v", impl.Name(), err)
			}
			total := wins[0] + wins[1] + wins[2]
			if got := impl.Logical(s.Mem().Peek(x)); got != total {
				t.Fatalf("%s: final X = %d, want total successes %d (wins %v)", impl.Name(), got, total, wins)
			}
		}
	})
}

// chainSeeds are FuzzCCASChain's in-code seeds (testdata/fuzz holds more).
var chainSeeds = [][]byte{
	[]byte("\x00\x03\x07"),
	[]byte("\x01\x00\x10\x20\x05"),
	[]byte("\xff\x0f\x00\x08"),
}

// execFunc is the signature of Impl.Exec, so that a test can substitute a
// reference form of the construction.
type execFunc func(e shmem.Ctx, v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool

// chainSim builds, but does not run, the FuzzCCASChain cast for data (at
// least 3 bytes) on a one-processor simulation; cfg supplies the optional
// knobs (tracing). Every CCAS goes through exec; impl supplies
// the rest of the word discipline. x is the shared word; wins[p] counts
// process p's successful CCASes once the run finishes.
func chainSim(impl Impl, exec execFunc, data []byte, cfg sched.Config) (s *sched.Sim, x shmem.Addr, wins []uint64) {
	byteAt := func(i int) int64 { return int64(data[i%len(data)]) }
	cfg.Processors, cfg.Seed, cfg.MemWords = 1, 1+byteAt(0), 256
	s = sched.New(cfg)
	m := s.Mem()
	v := m.MustAlloc("V", 1)
	x = m.MustAlloc("X", 1)
	m.Poke(v, 0)
	impl.InitWord(m, x, 0)
	wins = make([]uint64, 3)
	for p := 0; p < 3; p++ {
		p := p
		attempts := 2 + int(byteAt(p+1)%6)
		release := byteAt(p+4) % 32
		advanceEvery := 1 + int(byteAt(p+7)%4)
		s.SpawnAt(release, 0, sched.Priority(1+2*p), "chain", func(e *sched.Env) {
			for n := 0; n < attempts; n++ {
				old := impl.Read(e, x)
				ver := e.Load(v)
				if exec(e, v, ver, x, old, old+1) {
					wins[p]++
				}
				if n%advanceEvery == 0 {
					if cur := e.Load(v); e.CAS(v, cur, cur+1) {
						impl.AfterAdvance(e)
					}
				}
			}
		})
	}
	return s, x, wins
}
