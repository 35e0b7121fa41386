// Cyclic vs priority helping (Section 3.1).
//
// With cyclic helping the help counter tours the processor ring, so an
// urgent operation can wait for up to 2P earlier operations. Priority
// helping advances the counter straight to the highest-priority pending
// operation — "if an operation is of highest priority, then at most two
// other concurrent operations can be completed before it". This example
// measures the response time of one urgent operation arriving while three
// processors grind through long low-priority scans, under both modes.
//
//	go run ./examples/priorityhelp
package main

import (
	"fmt"
	"os"

	waitfree "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "priorityhelp: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(10 * (i + 1))
	}
	measure := func(mode waitfree.HelpingMode) (int64, error) {
		sim := waitfree.NewSim(waitfree.SimConfig{Processors: 4, Seed: 5})
		list, err := waitfree.NewMultiList(sim, waitfree.ListConfig{
			Procs: 4, Capacity: 340, Seed: keys, Mode: mode, Stride: 1,
		})
		if err != nil {
			return 0, err
		}
		// Three processors run back-to-back full-list scans at low
		// priority: deletes of an absent key, which go through the
		// helping ring (a search would answer from a read-only walk).
		for cpu := 1; cpu < 4; cpu++ {
			cpu := cpu
			sim.Spawn(waitfree.JobSpec{
				Name: fmt.Sprintf("grind%d", cpu), CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1,
				Body: func(e *waitfree.Env) {
					for k := 0; k < 3; k++ {
						list.Delete(e, 3005)
					}
				},
			})
		}
		// The urgent operation lands on the idle processor mid-grind.
		var response int64
		sim.Spawn(waitfree.JobSpec{
			Name: "urgent", CPU: 0, Prio: 9, Slot: 0, At: 700, AfterSlices: -1,
			Body: func(e *waitfree.Env) {
				start := e.Now()
				list.Delete(e, 3005)
				response = e.Now() - start
			},
		})
		if err := sim.Run(); err != nil {
			return 0, err
		}
		return response, nil
	}

	cyc, err := measure(waitfree.CyclicHelping)
	if err != nil {
		return err
	}
	pri, err := measure(waitfree.PriorityHelping)
	if err != nil {
		return err
	}
	fmt.Println("urgent operation response (virtual units) while 3 CPUs grind low-priority scans:")
	fmt.Printf("  cyclic helping:   %6d   (waits its turn on the ring)\n", cyc)
	fmt.Printf("  priority helping: %6d   (counter jumps to the urgent op; %.1fx faster)\n",
		pri, float64(cyc)/float64(pri))
	if pri >= cyc {
		return fmt.Errorf("priority helping was not faster (cyclic %d, priority %d)", cyc, pri)
	}
	return nil
}
