package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Record is one run in a results file: the command appends one JSON line
// per run with -out, and compare reads two such files.
type Record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
}

// AppendRecord appends rec as one line of the JSON-lines file at path.
func AppendRecord(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords parses a JSON-lines results file.
func readRecords(path string) ([]Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Rule is how compare judges one metric: its direction, and for an
// end-to-end metric the share of the parent's median by which it may
// worsen (NaN for a per-layer metric, which has no bound).
type Rule struct {
	Unit   string
	Better string
	Bound  float64
}

// LoadRules reads the metric rules from a BENCHMARK.json.
func LoadRules(path string) (map[string]Rule, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := map[string]Rule{}
	for _, m := range doc.EndToEnd {
		rules[m.Name] = Rule{m.Unit, m.Better, m.Bound}
	}
	for _, m := range doc.PerLayer {
		rules[m.Name] = Rule{m.Unit, m.Better, math.NaN()}
	}
	return rules, nil
}

// Verdicts compare can reach.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// MinPairs is the fewest parent/change pairs a verdict rests on.
const MinPairs = 10

// Side summarizes one side's runs of a metric.
type Side struct {
	Median, Q1, Q3 float64
}

// Comparison is compare's finding for one workload and metric.
type Comparison struct {
	Workload, Metric, Unit string
	Pairs                  int
	Parent, Change         Side
	// WinFrac is the share of pairs in which the change read better; ties
	// count for neither side.
	WinFrac float64
	Verdict string
	Why     string
}

func summarize(xs []float64) Side {
	q1, q3 := quartiles(xs)
	return Side{median(xs), q1, q3}
}

// Judge compares paired runs of one metric: parent[i] and change[i] are
// the i-th pair. A change improves a metric when it wins at least nine
// tenths of the pairs and the medians differ by more than the parent's
// quartile spread. A bounded metric regresses when the change's median is
// worse than the parent's by more than the bound, and is unresolved when
// the parent's own spread exceeds the bound, unless every change run reads
// better than every parent run. An unbounded metric regresses by the
// mirror of the improvement rule.
func Judge(rule Rule, parent, change []float64) Comparison {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	c := Comparison{Unit: rule.Unit, Pairs: n}
	if n < MinPairs {
		if n >= 2 {
			c.Parent, c.Change = summarize(parent), summarize(change)
		}
		c.Verdict, c.Why = Unresolved, fmt.Sprintf("%d pairs; need %d", n, MinPairs)
		return c
	}
	c.Parent, c.Change = summarize(parent), summarize(change)
	// gain is positive when the change reads better.
	sign := 1.0
	if rule.Better == "lower" {
		sign = -1
	}
	better := func(a, b float64) bool { return sign*(a-b) > 0 }
	wins, losses := 0, 0
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	c.WinFrac = float64(wins) / float64(n)
	gain := sign * (c.Change.Median - c.Parent.Median)
	spread := c.Parent.Q3 - c.Parent.Q1
	base := math.Abs(c.Parent.Median)
	switch {
	case 10*wins >= 9*n && gain > spread:
		c.Verdict, c.Why = Improved, fmt.Sprintf("won %d/%d pairs, median gain %.4g > parent spread %.4g", wins, n, gain, spread)
	case math.IsNaN(rule.Bound):
		if 10*losses >= 9*n && -gain > spread {
			c.Verdict, c.Why = Regressed, fmt.Sprintf("lost %d/%d pairs, median loss %.4g > parent spread %.4g", losses, n, -gain, spread)
		} else {
			c.Verdict, c.Why = Unchanged, "no bound; not improved or regressed by the pair rule"
		}
	case spread > rule.Bound*base:
		if allBetter(better, change, parent) {
			c.Verdict, c.Why = Unchanged, "parent spread exceeds the bound, but every change run reads better"
		} else {
			c.Verdict, c.Why = Unresolved, fmt.Sprintf("parent spread %.2f%% exceeds the %.0f%% bound", 100*spread/base, 100*rule.Bound)
		}
	case -gain > rule.Bound*base:
		c.Verdict, c.Why = Regressed, fmt.Sprintf("median %.2f%% worse, bound %.0f%%", -100*gain/base, 100*rule.Bound)
	default:
		c.Verdict, c.Why = Unchanged, fmt.Sprintf("median within the %.0f%% bound", 100*rule.Bound)
	}
	return c
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(better func(a, b float64) bool, change, parent []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

// CompareFiles pairs the runs of two results files — the i-th parent run
// of a workload with its i-th change run — and judges every metric both
// sides report, per workload.
func CompareFiles(rules map[string]Rule, parentPath, changePath string) ([]Comparison, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return nil, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return nil, err
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []Record) map[key][]Record {
		g := map[key][]Record{}
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	pg, cg := group(parent), group(change)
	var keys []key
	for k := range pg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	var out []Comparison
	for _, k := range keys {
		ps, cs := pg[k], cg[k]
		for _, name := range sortedKeys(ps[0].Result.Metrics) {
			rule, ok := rules[name]
			if !ok {
				continue
			}
			var pv, cv []float64
			for i := 0; i < min(len(ps), len(cs)); i++ {
				p, pok := ps[i].Result.Metrics[name]
				c, cok := cs[i].Result.Metrics[name]
				if pok && cok {
					pv, cv = append(pv, p.Value), append(cv, c.Value)
				}
			}
			cmp := Judge(rule, pv, cv)
			cmp.Workload, cmp.Metric = k.workload, name
			out = append(out, cmp)
		}
		if failed := countFailed(cs); failed > countFailed(ps) {
			out = append(out, Comparison{Workload: k.workload, Metric: "failed", Unit: "count",
				Pairs: min(len(ps), len(cs)), Verdict: Regressed,
				Why: fmt.Sprintf("%d failed operations, parent %d", failed, countFailed(ps))})
		}
	}
	return out, nil
}

func countFailed(recs []Record) int {
	n := 0
	for _, r := range recs {
		n += r.Result.Failed
	}
	return n
}

// PrintComparisons writes one line per comparison.
func PrintComparisons(w io.Writer, cs []Comparison) {
	fmt.Fprintf(w, "%-14s %-38s %5s  %-38s  %-38s %5s  %-10s %s\n",
		"workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict", "why")
	for _, c := range cs {
		side := func(s Side) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3) }
		fmt.Fprintf(w, "%-14s %-38s %5d  %-38s  %-38s %4.0f%%  %-10s %s\n",
			c.Workload, c.Metric, c.Pairs, side(c.Parent), side(c.Change), 100*c.WinFrac, c.Verdict, c.Why)
	}
}
