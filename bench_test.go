package waitfree_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/paper"
)

// BenchmarkPaper runs every entry of the paper's experiment table
// (internal/paper, indexed in DESIGN.md) at the reduced scale of
// TestPaperBands; `wfbench -exp paper` runs it at the paper's 50,000
// operations. Wall-clock ns/op measures the simulator, which is not what
// the paper reports: the reproduction targets are the row values, reported
// as one metric per cell named [table index/]row label/column.
func BenchmarkPaper(b *testing.B) {
	for _, ex := range paper.Experiments {
		b.Run(ex.ID, func(b *testing.B) {
			var r paper.Result
			for i := 0; i < b.N; i++ {
				var err error
				if r, err = ex.Measure(paper.Scale{Ops: 3000, Procs: 4, Seed: 11}); err != nil {
					b.Fatal(err)
				}
			}
			if r.Band != "pass" {
				b.Error(r.Band)
			}
			for ti, t := range r.Tables {
				for _, row := range t.Rows {
					for i, v := range row.V {
						name := strings.Join(append(row.Label, t.Values[i].Name), "/")
						if len(r.Tables) > 1 {
							name = fmt.Sprintf("%d/%s", ti, name)
						}
						b.ReportMetric(v, strings.Join(strings.Fields(name), "_"))
					}
				}
			}
		})
	}
}
