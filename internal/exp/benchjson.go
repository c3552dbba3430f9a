// Machine-readable benchmark output.
//
// cmd/embench writes one BENCH_<name>.json file per experiment so that CI
// and plotting scripts can consume the reproduction's numbers without
// scraping the human tables. Every file pairs the paper's published value
// (where one exists) with our measured value in the same row. The encoding
// is deterministic: fixed struct field order, no maps, and no wall-clock
// fields outside the "host"-prefixed ones — the same program on the same
// simulated network produces byte-identical files on every run, so the
// committed baselines are gated exactly.

package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// BenchDoc is every BENCH_<name>.json document: a header naming the study
// and the study's own result rows, each row type carrying its JSON tags.
// Field order is key order in the file.
type BenchDoc struct {
	Benchmark string `json:"benchmark"`
	Unit      string `json:"unit,omitempty"`
	Workload  string `json:"workload,omitempty"`
	// HostCPUs is set only by a document whose rows are host wall-clock
	// measurements; such a document is written but never gated.
	HostCPUs int    `json:"host_cpus,omitempty"`
	Claim    string `json:"claim,omitempty"`
	Rows     any    `json:"rows"`
}

// MarshalJSON writes a Table 1 cell as one flat row: the pair's label and
// machine names and the paper's ms for two thread moves (original and
// enhanced system, "N/A" where the authors' hardware had died) next to our
// simulated measurements.
func (c Cell) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Pair            string  `json:"pair"`
		SrcMachine      string  `json:"src_machine"`
		DstMachine      string  `json:"dst_machine"`
		PaperOriginalMS string  `json:"paper_original_ms"`
		PaperEnhancedMS string  `json:"paper_enhanced_ms"`
		OriginalMS      float64 `json:"original_ms"` // <0: original system can't run this pair
		EnhancedMS      float64 `json:"enhanced_ms"`
		OverheadPct     float64 `json:"overhead_pct"` // <0: no original baseline
		ConvCalls       uint64  `json:"conv_calls_per_two_moves"`
		WireBytes       uint64  `json:"wire_bytes_per_two_moves"`
	}{
		c.Pair.Label, c.Pair.A.Name, c.Pair.B.Name, c.Pair.PaperOriginal, c.Pair.PaperEnhanced,
		c.OriginalMS, c.EnhancedMS, c.OverheadPct, c.ConvCalls, c.BytesPerMoves,
	})
}

// WriteBenchJSON writes doc as indented JSON to dir/BENCH_<doc.Benchmark>.json
// and returns the path.
func WriteBenchJSON(dir string, doc BenchDoc) (string, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+doc.Benchmark+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}

// CompareBenchJSON checks a fresh BENCH document against its committed
// baseline. The simulation is deterministic, so every field must be equal,
// except those whose key starts with "host": they record host-dependent
// measurements (wall-clock MIPS, CPU counts) that no two machines — or two
// runs on one loaded machine — reproduce. The error names the first
// differing JSON path.
func CompareBenchJSON(fresh, baseline []byte) error {
	var f, b any
	if err := json.Unmarshal(fresh, &f); err != nil {
		return fmt.Errorf("fresh result: %w", err)
	}
	if err := json.Unmarshal(baseline, &b); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if d := benchDiff("$", f, b); d != "" {
		return fmt.Errorf("differs from baseline at %s", d)
	}
	return nil
}

// benchDiff returns "" when fresh equals base, host fields aside, and
// otherwise the first differing path (keys in sorted order) with both
// values.
func benchDiff(path string, fresh, base any) string {
	switch b := base.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			break
		}
		var keys []string
		for k := range b {
			keys = append(keys, k)
		}
		for k := range f {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if strings.HasPrefix(k, "host") || i > 0 && keys[i-1] == k {
				continue
			}
			if d := benchDiff(path+"."+k, f[k], b[k]); d != "" {
				return d
			}
		}
		return ""
	case []any:
		f, ok := fresh.([]any)
		if !ok {
			break
		}
		if len(f) != len(b) {
			return fmt.Sprintf("%s: %d entries, baseline %d", path, len(f), len(b))
		}
		for i := range b {
			if d := benchDiff(fmt.Sprintf("%s[%d]", path, i), f[i], b[i]); d != "" {
				return d
			}
		}
		return ""
	default:
		if fresh == base {
			return ""
		}
	}
	// A key one side lacks reads as <nil> (the documents hold no JSON null).
	return fmt.Sprintf("%s: %v, baseline %v", path, fresh, base)
}
