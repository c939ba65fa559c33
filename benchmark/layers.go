package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

//go:embed reference.json
var referenceJSON []byte

// loadReference returns the committed result fingerprint of each workload
// at defaultSeed.
func loadReference() (map[string]string, error) {
	var ref map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// layerTimings maps each per-layer timing metric to the spans it is read
// from. Every metric is reported as its p50, its tail (see tail), both
// labelled with their sample count in the summary, and its calls per traced
// cell; a workload that never makes the call reports zeros.
var layerTimings = []struct {
	metric, span, unit string
	perUS              float64 // metric units per µs
}{
	{"lang.compile_us", "lang.compile", "us", 1},
	{"scenario.generate_us", "scenario.generate", "us", 1},
	{"campaign.store_open_ms", "campaign.store_open", "ms", 1e-3},
	{"campaign.key_us", "campaign.key", "us", 1},
	{"campaign.store_get_us", "campaign.store_get", "us", 1},
	{"sim.decode_us", "sim.decode", "us", 1},
	{"campaign.store_put_us", "campaign.store_put", "us", 1},
	{"sim.encode_us", "sim.encode", "us", 1},
	{"sim.compile_us", "sim.compile", "us", 1},
	{"campaign.wire_overhead_ms", "campaign.wire_overhead", "ms", 1e-3},
	{"sim.new_us", "sim.new", "us", 1},
	{"sim.run_ms", "sim.run", "ms", 1e-3},
	{"rl.train_cell_s", "rl.train", "s", 1e-6},
	{"campaign.execute_ms", "campaign.execute", "ms", 1e-3},
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, tr *tracer, traced, plain []pass, table []row) {
	tracedCells := 0
	for _, p := range traced {
		tracedCells += p.cells
	}
	for _, lt := range layerTimings {
		var xs []float64
		calls := 0
		tr.mu.Lock()
		for _, s := range tr.spans {
			if s.Name == lt.span {
				n := max(s.Calls, 1)
				xs = append(xs, s.DurUS/float64(n)*lt.perUS)
				calls += n
			}
		}
		tr.mu.Unlock()
		t, label := tail(xs)
		n := fmt.Sprintf(" of %d", len(xs))
		m[lt.metric] = metric{Value: median(xs), Unit: lt.unit, label: "p50" + n}
		m[lt.metric+".tail"] = metric{Value: t, Unit: lt.unit, label: label + n}
		m[lt.metric+".calls_per_cell"] = metric{Value: ratio(float64(calls), float64(tracedCells)), Unit: "1/cell"}
	}

	var allocKB []float64
	var instr, runUS float64
	tr.mu.Lock()
	for _, s := range tr.spans {
		switch s.Name {
		case "sim.new":
			allocKB = append(allocKB, float64(s.AllocB)/1024)
		case "sim.run":
			instr += float64(s.Instr)
			runUS += s.DurUS
		}
	}
	tr.mu.Unlock()
	m["sim.new_alloc_kb"] = metric{Value: median(allocKB), Unit: "KiB"}
	m["sim.run_minstr_per_s"] = metric{Value: ratio(instr, runUS), Unit: "Minstr/s"}

	var trainS, wallS float64
	cells, hits, leaseErrs := 0, 0, 0
	for _, p := range append(append([]pass(nil), traced...), plain...) {
		cells += p.cells
		hits += p.hits
		leaseErrs += p.leaseErrors
	}
	for _, p := range traced {
		trainS += p.trainS
		wallS += p.wallS
	}
	m["rl.train_share"] = metric{Value: ratio(trainS, wallS), Unit: "ratio"}
	m["campaign.hit_ratio"] = metric{Value: ratio(float64(hits), float64(cells)), Unit: "ratio"}
	m["campaign.lease_errors"] = metric{Value: float64(leaseErrs), Unit: "count"}
	m["trace.overhead_pct"] = metric{Value: 100 * (ratio(cellsPerCPUS(plain), cellsPerCPUS(traced)) - 1), Unit: "%"}
	for _, r := range table {
		switch r.name {
		case rowTotal:
			m["cell.ms"] = metric{Value: r.us / 1e3, Unit: "ms"}
		case rowUnattributed:
			m["cell.unattributed_ms"] = metric{Value: r.us / 1e3, Unit: "ms"}
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cellsPerS is the passes' median cells per wall second.
func cellsPerS(ps []pass) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, float64(p.cells)/p.wallS)
	}
	return median(xs)
}

// cellsPerCPUS is the passes' median cells per CPU second.
func cellsPerCPUS(ps []pass) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, float64(p.cells)/p.cpuS)
	}
	return median(xs)
}

// row is one line of the where-the-time-goes table: time per cell.
type row struct {
	name string
	us   float64
	note string
}

const (
	rowTotal        = "wall per cell"
	rowUnattributed = "unattributed"
)

// selfRows breaks the traced passes' wall time per cell into the self time
// of each span name in the timed phase; what no span covers, and the
// benchmark's own per-cell bookkeeping (the "cell" spans' self time), is
// the unattributed remainder.
func selfRows(tr *tracer, traced []pass) []row {
	var wallUS float64
	cells := 0
	for _, p := range traced {
		wallUS += p.wallS * 1e6
		cells += p.cells
	}
	if cells == 0 {
		return nil
	}
	rows := []row{{name: rowTotal, us: wallUS / float64(cells)}}
	rest := wallUS
	selfUS := tr.selfUS("timed")
	for _, lt := range layerTimings {
		self := selfUS[lt.span]
		if self == 0 {
			continue
		}
		rows = append(rows, row{name: lt.span, us: self / float64(cells)})
		rest -= self
	}
	return append(rows, row{name: rowUnattributed, us: rest / float64(cells)})
}

func renderTable(workload string, rows []row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "where a %s cell's time goes (traced passes):\n", workload)
	total := rows[0].us
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-28s %12.3f ms %7.2f%%  %s\n", r.name, r.us/1e3, 100*ratio(r.us, total), r.note)
	}
	return sb.String()
}
