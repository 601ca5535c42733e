package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runSeconds is the length of the timed region the driver asks for.
const runSeconds = 20

// emitBenchmarkJSON renders the contract file from the workload table and
// the metric catalogue.
func emitBenchmarkJSON(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/bench.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workload{Name: s.name, Why: "closed loop, " + s.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}

// runCalibrate runs sets complete sets of untraced runs, each in a fresh
// process as the driver does and each set with its own seed, and prints for
// every workload and end-to-end metric the median over sets, the spread
// (inter-quartile range over median, the driver's acceptance measure), the
// largest deviation of a set from the median, and the bound.
func runCalibrate(sets int, seed uint64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("| workload | metric | median | spread (IQR/median) | max deviation | bound |\n|---|---|---|---|---|---|\n")
	for _, s := range specs {
		vals := map[string][]float64{}
		for set := 0; set < sets; set++ {
			cmd := exec.Command(self, "-workload", s.name, "-seed", strconv.FormatUint(seed+uint64(set), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s set %d: %w", s.name, set, err)
			}
			var res result
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s set %d: %w", s.name, set, err)
			}
			for name, v := range res.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			v := vals[d.Name]
			slices.Sort(v)
			med := quantileOf(v, 0.5)
			dev := max(med-v[0], v[len(v)-1]-med) / med
			spread := 0.0
			if len(v) >= 2 {
				q := quartiles(v)
				spread = (q[2] - q[0]) / med
			}
			fmt.Printf("| %s | %s | %.6g | %.4f | %.4f | %.2f |\n", s.name, d.Name, med, spread, dev, d.Bound)
		}
	}
	return nil
}

// quartiles are the three cut points of sorted as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is what the driver computes.
func quartiles(sorted []float64) [3]float64 {
	var q [3]float64
	n := len(sorted)
	for i := range q {
		pos := float64(i+1) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		q[i] = sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return q
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}
