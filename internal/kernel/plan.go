// Conversion-plan caching: template-driven frame conversion (MD→MI on
// the way out, MI→MD on the way in) re-resolves every variable's
// register home, frame offset and value kind on every hop, although all
// of that is static per (function, bus stop). A convPlan compiles the
// resolution once — on the first conversion at a stop — into flat slot
// descriptors, and is cached on the loadedFunc keyed by bus stop; with
// the code object and this node's own ISA that is the paper's (code
// object, bus stop, ISA) key. Nothing in a plan depends on the peer's
// ISA (the converter carries that), so one plan serves every peer and
// both directions. Repeated hops of the same thread (the kilroy tour,
// mobile13) then skip template interpretation entirely.
//
// Plans change how fast conversion runs, never what it does: the
// converter call sequence (which feeds the simulated conversion cost via
// chargeConv), the wire bytes, and the resulting memory images must be
// identical to the template-interpreting path. The one sanctioned
// deviation is live-set sharpening (off under Config.NoSharpen): slots the
// stop's LiveVars mask proves dead ship the canonical zero instead of
// their stale payload. That substitutes the input word of the same
// converter call — sequence, sizes, charges and events are untouched,
// and the restored slot differs only in bits no execution can read.

package kernel

import (
	"fmt"

	"repro/internal/busstop"
	"repro/internal/ir"
	"repro/internal/wire"
)

// varPlan is one variable's resolved home and value kind. dead marks
// slots the stop's LiveVars mask proves unread after resumption; their
// payload word is replaced by zero (the canonical zero for the slot's kind
// in this node's formats) before conversion, so the converter call
// sequence, wire sizes, charges and events stay identical while the
// shipped bits become canonical. Pointer slots are never marked: their
// conversion has observable side effects (string copies, swizzle exports),
// so canonicalizing them would not be charge-neutral.
type varPlan struct {
	inReg bool
	reg   uint8
	off   uint32
	kind  ir.VK
	dead  bool
	zero  uint32
}

// convPlan is the compiled conversion plan for one (function, bus stop):
// variable homes and the stop record (whose TempKinds give the temp
// slots' kinds, see tempKindAt), all resolved once.
type convPlan struct {
	vars    []varPlan
	stop    busstop.Info
	entry   bool
	tempOff uint32
}

// planFor returns the cached plan for (lf, stopNum), compiling it on
// first use. stopNum is wire.EntryStop for entry frames. An unknown stop
// number panics exactly like the template-interpreting path did.
func (n *Node) planFor(lf *loadedFunc, stopNum uint16) *convPlan {
	if pl, ok := lf.plans[stopNum]; ok {
		return pl
	}
	t := lf.fc.Template
	pl := &convPlan{vars: make([]varPlan, len(t.Vars)), tempOff: uint32(t.TempOff)}
	for i, h := range t.Vars {
		pl.vars[i] = varPlan{inReg: h.InReg, reg: uint8(h.Reg & 0xf),
			off: uint32(h.Off), kind: h.Kind}
	}
	if stopNum == wire.EntryStop {
		pl.entry = true
	} else {
		stop, err := lf.fc.Stops.ByStop(int(stopNum))
		if err != nil {
			panic(fmt.Sprintf("kernel: %v", err))
		}
		pl.stop = stop
		if !n.cluster.NoSharpen {
			// Slots >= 64 are outside the mask and stay live; entry frames
			// never reach here (no stop, nothing is dead before first run).
			for v := range pl.vars {
				vp := &pl.vars[v]
				if v >= 64 || vp.kind == ir.VKPtr || stop.LiveVars&(1<<uint(v)) != 0 {
					continue
				}
				vp.dead = true
				if vp.kind == ir.VKReal {
					vp.zero = n.Spec.Float.Enc(0)
				}
			}
		}
	}
	if lf.plans == nil {
		lf.plans = make(map[uint16]*convPlan)
	}
	lf.plans[stopNum] = pl
	return pl
}

// marshalFrame converts one activation to machine-independent form,
// returning also the shipped values (for hint collection). It runs over
// the cached conversion plan for (function, stop), compiling it on the
// first hop through this stop. One backing array serves vars, temps
// and the shipped-value list — sized from the plan, so steady-state
// marshalling performs a single allocation per frame.
func (n *Node) marshalFrame(conv *wire.Converter, fi frameInfo) (wire.MIActivation, []wire.Value) {
	act := wire.MIActivation{
		CodeOID:   fi.lf.code.oc.CodeOID,
		FuncIndex: uint16(fi.lf.idx),
	}
	nt := 0
	if fi.entry {
		act.Stop = wire.EntryStop
	} else {
		act.Stop = uint16(fi.stop.Stop)
		nt = fi.tempDepth
	}
	pl := n.planFor(fi.lf, act.Stop)
	nv := len(pl.vars)
	if nv+nt == 0 {
		return act, nil
	}
	all := make([]wire.Value, nv+nt)
	n.MarshaledVarSlots += uint64(nv)
	for i := range pl.vars {
		vp := &pl.vars[i]
		var w uint32
		if vp.dead {
			w = vp.zero
			n.CanonicalizedVarSlots++
		} else if vp.inReg {
			w = fi.regs[vp.reg]
		} else {
			w = n.ld32(fi.fp + vp.off)
		}
		v, err := n.wireTempValue(conv, vp.kind, w)
		if err != nil {
			panic(fmt.Sprintf("kernel: marshal %s var %s: %v",
				fi.lf.name(), fi.lf.fc.Template.Vars[i].Name, err))
		}
		all[i] = v
	}
	for j := 0; j < nt; j++ {
		w := n.ld32(fi.fp + pl.tempOff + uint32(4*j))
		v, err := n.wireTempValue(conv, tempKindAt(pl.stop, j), w)
		if err != nil {
			panic(fmt.Sprintf("kernel: marshal %s temp %d: %v", fi.lf.name(), j, err))
		}
		all[nv+j] = v
	}
	if nv > 0 {
		act.Vars = all[:nv:nv]
	}
	if nt > 0 {
		act.Temps = all[nv:]
	}
	return act, all
}
