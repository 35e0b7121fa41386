// Kernel run-queue: the paper's motivating scenario (Section 1).
//
// "Wait-free and lock-free kernel data structures facilitate the design of
// re-entrant kernels, because their use eliminates the possibility of
// deadlock resulting from a preempted object access."
//
// This example models a uniprocessor kernel whose interrupt handlers are
// prioritized "processes": a timer interrupt (low), a disk interrupt
// (medium) and an NMI-ish network interrupt (high) all manipulate one
// shared, key-ordered run queue — nested, because each may fire while a
// lower handler is mid-operation. With the wait-free list everything
// completes; with the spin-lock list the same nesting deadlocks (the
// simulator's watchdog catches the spinning handler).
//
//	go run ./examples/kernelqueue
package main

import (
	"errors"
	"fmt"
	"os"

	waitfree "repro"
	"repro/internal/arena"
	"repro/internal/baseline/locklist"
	"repro/internal/sched"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "kernelqueue: %v\n", err)
		os.Exit(1)
	}
}

// handlerFires describes the nested interrupt pattern: each handler fires
// after the one below it has executed a given number of steps, so every
// handler interrupts the previous one mid-operation.
var handlerFires = []struct {
	name  string
	prio  waitfree.Priority
	slice int64
}{
	{"timer-irq", 1, -1}, // base handler, starts immediately
	{"disk-irq", 5, 35},  // fires while timer-irq is mid-insert
	{"net-irq", 9, 50},   // fires while disk-irq is helping/inserting
}

func run() error {
	fmt.Println("== wait-free run queue (paper's kernel scenario) ==")
	if err := waitFreeKernel(); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("== the same nesting with a spin-lock run queue ==")
	return lockedKernel()
}

// enqueueTasks is what each handler does: pull some task IDs into the run
// queue and retire one.
func enqueueTasks(list *waitfree.UniList, base uint64) func(*waitfree.Env) {
	return func(e *waitfree.Env) {
		for i := uint64(0); i < 3; i++ {
			list.Insert(e, base+i*10, base)
		}
		list.Delete(e, base)
	}
}

func waitFreeKernel() error {
	sim := waitfree.NewSim(waitfree.SimConfig{Processors: 1, Seed: 7, EnableTrace: true})
	queue, err := waitfree.NewUniList(sim, waitfree.ListConfig{Procs: 3, Capacity: 64})
	if err != nil {
		return err
	}
	for slot, h := range handlerFires {
		slot, h := slot, h
		sim.Spawn(waitfree.JobSpec{
			Name: h.name, CPU: 0, Prio: h.prio, Slot: slot, AfterSlices: h.slice,
			Body: enqueueTasks(queue, uint64(100*(slot+1))),
		})
	}
	if err := sim.Run(); err != nil {
		return err
	}
	fmt.Printf("all handlers completed; run queue: %v\n", queue.Snapshot())
	helped := 0
	for _, ev := range sim.Trace().Annotations() {
		if msg := ev.Message(); len(msg) >= 4 && msg[:4] == "help" {
			helped++
			fmt.Printf("  %s helped the preempted handler below it\n", ev.ProcName)
		}
	}
	if helped == 0 {
		fmt.Println("  (no helping was needed in this interleaving)")
	}
	return nil
}

func lockedKernel() error {
	sim := sched.New(sched.Config{Processors: 1, Seed: 7, MemWords: 1 << 12, MaxSteps: 100_000})
	ar, err := arena.New(sim.Mem(), 64, 3)
	if err != nil {
		return err
	}
	queue, err := locklist.New(sim.Mem(), ar)
	if err != nil {
		return err
	}
	ar.Freeze()
	for slot, h := range handlerFires {
		slot, h := slot, h
		sim.Spawn(sched.JobSpec{
			Name: h.name, CPU: 0, Prio: sched.Priority(h.prio), Slot: slot, AfterSlices: h.slice,
			Body: func(e *sched.Env) {
				base := uint64(100 * (slot + 1))
				for i := uint64(0); i < 3; i++ {
					queue.Insert(e, base+i*10, base)
				}
				queue.Delete(e, base)
			},
		})
	}
	err = sim.Run()
	if errors.Is(err, sched.ErrWatchdog) {
		fmt.Println("DEADLOCK (watchdog): a handler interrupted the lock holder and now")
		fmt.Printf("spins forever (%d spins recorded). This is why the Synthesis and\n", queue.Spins.Load())
		fmt.Println("Cache kernels went lock-free, and what wait-freedom fixes outright.")
		return nil
	}
	if err != nil {
		return err
	}
	return errors.New("expected the locked kernel to deadlock under this nesting")
}
