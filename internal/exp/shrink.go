// Static frame shrink: how much of each example's marshaled frame state
// the points-to-backed liveness masks prove dead. The stop tables carry a
// machine-independent LiveVars mask per bus stop (internal/ir liveness,
// checked cross-ISA by vet); a dead slot still crosses the wire — the
// conversion plan substitutes its canonical zero, keeping the converter
// call sequence byte-identical — but it no longer carries information,
// which is exactly the state a future format change could elide. The
// table reports the static bound (slots and frame payload bytes over all
// stops, before and after intersecting with the live masks) alongside
// the slots the default sharpened run actually canonicalized.

package exp

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
)

// slotWireBytes is the frame payload cost of one variable slot on the
// wire: a one-byte value tag plus the 32-bit machine-independent word
// (references and strings cost more; the static bound prices every slot
// at the scalar rate, so it is conservative for both columns alike).
const slotWireBytes = 5

// ShrinkRow is the shrink measurement for one example program.
type ShrinkRow struct {
	Program   string
	Stops     int // bus stops contributing frames
	SlotsAll  int // static: frame slots marshaled over all stops
	SlotsLive int // static: slots the live masks keep
	BytesAll  int // static frame payload bytes, all slots
	BytesLive int // static frame payload bytes, live slots only
	// Runtime counters from one sharpened Figure-1 run.
	RunMarshaled     uint64
	RunCanonicalized uint64
}

// Shrink measures every example program in dir.
func Shrink(dir string) ([]ShrinkRow, error) {
	progs, err := filepath.Glob(filepath.Join(dir, "*.em"))
	if err != nil {
		return nil, err
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("no example programs in %s", dir)
	}
	sort.Strings(progs)
	var rows []ShrinkRow
	for _, pf := range progs {
		srcBytes, err := os.ReadFile(pf)
		if err != nil {
			return nil, err
		}
		row, err := shrinkOne(filepath.Base(pf), string(srcBytes))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pf, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func shrinkOne(name, src string) (*ShrinkRow, error) {
	sys, err := runWith(src, codegen.Options{}, core.Figure1Network()...)
	if err != nil {
		return nil, err
	}
	row := &ShrinkRow{Program: strings.TrimSuffix(name, ".em")}
	for _, n := range sys.Cluster.Nodes {
		row.RunMarshaled += n.MarshaledVarSlots
		row.RunCanonicalized += n.CanonicalizedVarSlots
	}
	for _, oc := range sys.Cluster.Prog.Objects {
		var ac *codegen.ArchCode
		for _, cand := range oc.PerArch {
			if cand != nil {
				ac = cand // stop tables are isomorphic across ISAs; any one will do
				break
			}
		}
		if ac == nil {
			continue
		}
		for i, fc := range ac.Funcs {
			nv := oc.IR.Funcs[i].NumVars
			over := 0 // slots past the 64-bit mask are always live
			if nv > 64 {
				over = nv - 64
			}
			for _, s := range fc.Stops.All() {
				row.Stops++
				row.SlotsAll += nv
				row.SlotsLive += bits.OnesCount64(s.LiveVars) + over
			}
		}
	}
	row.BytesAll = slotWireBytes * row.SlotsAll
	row.BytesLive = slotWireBytes * row.SlotsLive

	return row, nil
}

// FormatShrink renders the static-frame-shrink table.
func FormatShrink(rows []ShrinkRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Static frame shrink (per example, over all bus stops):")
	fmt.Fprintf(&b, "%-18s %5s %10s %10s %10s %10s %7s %12s %12s\n",
		"program", "stops", "slots", "live", "bytes", "live-bytes", "shrink", "run-slots", "run-canon")
	for _, r := range rows {
		pct := 0.0
		if r.SlotsAll > 0 {
			pct = 100 * float64(r.SlotsAll-r.SlotsLive) / float64(r.SlotsAll)
		}
		fmt.Fprintf(&b, "%-18s %5d %10d %10d %10d %10d %6.1f%% %12d %12d\n",
			r.Program, r.Stops, r.SlotsAll, r.SlotsLive, r.BytesAll, r.BytesLive,
			pct, r.RunMarshaled, r.RunCanonicalized)
	}
	return b.String()
}
