// Package paper declares every experiment of the paper reproduction once:
// an id, the paper's claim, a runner that measures rows of named
// virtual-time values, and a band — a predicate over those rows that says
// whether the measurement still reproduces the claim.
//
// The same table drives `wfbench -exp <id>` / `-exp paper` (which also
// writes the deterministic BENCH_paper.json), the BenchmarkPaper Go
// benchmark and TestPaperBands. Every value is simulator virtual time or a
// count, so a run is a pure function of its Scale.
package paper

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Scale is the input every runner takes: wfbench's -ops, -procs and -seed.
// Only the Section 3.4 list experiments read Ops and Procs; the others
// replay fixed configurations and read only Seed.
type Scale struct {
	Ops   int   `json:"ops"`
	Procs int   `json:"procs"`
	Seed  int64 `json:"seed"`
}

// Column names one numeric column; Prec is the number of decimals it is
// printed with (0 for virtual times and counts).
type Column struct {
	Name string `json:"name"`
	Prec int    `json:"prec,omitempty"`
}

// Row is one table row: its text cells, then one value per Column.
type Row struct {
	Label []string  `json:"label"`
	V     []float64 `json:"v"`
}

// Table is one printed table of an experiment.
type Table struct {
	Title  string   `json:"title"`
	Labels []string `json:"labels"`
	Values []Column `json:"values"`
	Rows   []Row    `json:"rows"`
}

// Experiment is one entry of the table. Run aborts through check on a
// setup error; Band returns nil when the tables reproduce Claim, or a
// readable reason when they do not.
type Experiment struct {
	ID    string
	Claim string
	Run   func(Scale) []Table
	Band  func(Scale, []Table) error
}

// Result is one measured experiment with its band verdict: "pass" or the
// band's failure message.
type Result struct {
	ID     string  `json:"id"`
	Claim  string  `json:"claim"`
	Tables []Table `json:"tables"`
	Band   string  `json:"band"`
}

// Doc is the content of BENCH_paper.json. It holds no host or wall-clock
// fields, so it is byte-identical across runs and machines.
type Doc struct {
	Scale       Scale    `json:"scale"`
	Experiments []Result `json:"experiments"`
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, ex := range Experiments {
		if ex.ID == id {
			return ex, true
		}
	}
	return Experiment{}, false
}

// Measure runs the experiment at sc and judges its rows.
func (ex Experiment) Measure(sc Scale) (r Result, err error) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case setupError:
			err = p.error
		default:
			panic(p)
		}
	}()
	r = Result{ID: ex.ID, Claim: ex.Claim, Tables: ex.Run(sc), Band: "pass"}
	if err := ex.Judge(sc, r.Tables); err != nil {
		r.Band = err.Error()
	}
	return r, nil
}

// Judge applies the band to ts. Rows too malformed for the band to read
// (a missing column or row) fail it rather than panic.
func (ex Experiment) Judge(sc Scale, ts []Table) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: malformed rows: %v", ex.ID, p)
		}
	}()
	if err := ex.Band(sc, ts); err != nil {
		return fmt.Errorf("%s: %w", ex.ID, err)
	}
	return nil
}

// RunAll measures every experiment in table order.
func RunAll(sc Scale) (Doc, error) {
	d := Doc{Scale: sc}
	for _, ex := range Experiments {
		r, err := ex.Measure(sc)
		if err != nil {
			return Doc{}, fmt.Errorf("%s: %w", ex.ID, err)
		}
		d.Experiments = append(d.Experiments, r)
	}
	return d, nil
}

// JSON renders the document as indented JSON with a trailing newline.
func (d Doc) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	return append(b, '\n'), err
}

// Cells renders the table as a header and text rows: the label columns
// first, then each value at its column's precision.
func (t Table) Cells() (header []string, rows [][]string) {
	header = append([]string{}, t.Labels...)
	for _, c := range t.Values {
		header = append(header, c.Name)
	}
	for _, r := range t.Rows {
		cells := append([]string{}, r.Label...)
		for i, v := range r.V {
			cells = append(cells, strconv.FormatFloat(v, 'f', t.Values[i].Prec, 64))
		}
		rows = append(rows, cells)
	}
	return header, rows
}

// add appends a row of label cells followed by values.
func (t *Table) add(label []string, v ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, V: v})
}

// col returns the named column of every row whose first label is series
// (every row when series is empty). An unknown column panics, which Judge
// reports as malformed rows.
func (t Table) col(series, name string) []float64 {
	j := -1
	for i, c := range t.Values {
		if c.Name == name {
			j = i
		}
	}
	if j < 0 {
		panic(fmt.Sprintf("table %q has no column %q", t.Title, name))
	}
	var out []float64
	for _, r := range t.Rows {
		if series == "" || r.Label[0] == series {
			out = append(out, r.V[j])
		}
	}
	return out
}
