// The emulator: executes encoded machine code against simulated node
// memory, one instruction at a time, until it faults or traps to the
// kernel. The kernel (internal/kernel) owns everything above this level —
// threads, activation records, objects, scheduling — and resumes execution
// by calling Step again with updated CPU state.
//
// Step holds no semantics of its own: it decodes the instruction at the
// PC and runs the general-form closure fuseInstr (fuse.go) compiles for
// it. What an op computes, charges and faults on is written
// once, there, for Step and the fused executor alike.

package arch

import "fmt"

// Heap object layout (the machine ABI shared by the code generator, the
// emulator's inline array/string operations and the kernel):
//
//	plain object:  [table index][slot 0][slot 1]...
//	array:         [table index][length][element 0]...
//	string:        [table index][length][bytes..., zero padded to a word]
//
// References point at the table-index header word; 0 is nil.
const (
	HeaderBytes = 4 // table index word
	LenOff      = 4 // length word of arrays and strings
	ArrDataOff  = 8 // first element / first byte
	ObjDataOff  = 4 // first slot of a plain object
)

// CPU is the register state of one native thread.
type CPU struct {
	Regs      [16]uint32
	PC        uint32 // offset within the current function's code
	FP        uint32 // activation record base address
	Self      uint32 // data area address of the receiver (header word)
	TempBase  uint32 // base address of the activation's temporary area
	TempDepth int32  // current evaluation stack depth (slots)
	LitBase   uint32 // literal table of the current code object
	Preempt   bool   // set by the kernel to request a reschedule at the next poll
}

// Step executes the instruction at cpu.PC, updating cpu and mem, and
// returns the consumed cycles plus a non-nil trap if the kernel must take
// over. A returned error indicates a simulator-internal inconsistency
// (undecodable code), not a program-level fault — program faults are
// delivered as TrapFault traps.
func Step(s *Spec, cpu *CPU, code []byte, mem []byte) (*Trap, uint32, error) {
	return step(s, cpu, code, mem, cpu.Preempt)
}

// step is Step with the reschedule request a poll obeys passed in. It
// compiles a fresh closure per call (and so allocates); the kernel's
// dispatch goes through Fuse instead.
func step(s *Spec, cpu *CPU, code []byte, mem []byte, preempt bool) (*Trap, uint32, error) {
	in, err := Decode(s, code, cpu.PC)
	if err != nil {
		return nil, 0, err
	}
	b := fuser{s: s}
	op := b.fuseInstr(&in)
	if op == nil {
		return nil, 0, fmt.Errorf("%s: unimplemented op %v at %#x", s.Name, in.Op, cpu.PC)
	}
	next := cpu.PC + in.Size
	e := fexec{
		cpu: cpu, mem: mem,
		fp: cpu.FP, self: cpu.Self, tempBase: cpu.TempBase, litBase: cpu.LitBase,
		mc: uint64(s.MemCycles), be: bigEndian(s), preempt: preempt,
		r: cpu.Regs, depth: cpu.TempDepth, npc: next,
	}
	op(&e)
	cpu.Regs, cpu.TempDepth = e.r, e.depth
	if e.fault != 0 {
		// A fault leaves cpu.PC at the instruction.
		return &Trap{Kind: TrapFault, Fault: e.fault, PC: next}, uint32(e.cycles), nil
	}
	cpu.PC = e.npc
	if e.trap == nil {
		return nil, uint32(e.cycles), nil
	}
	tr := e.tbuf
	return &tr, uint32(e.cycles), nil
}

func boolW(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// RunawayInstrs bounds how far a Run rolls forward past its budget: only
// a poll-free loop (codegen.Options.OmitLoopPolls) gets that far.
const RunawayInstrs = 1 << 24

// ErrRunaway ends a Run that reached RunawayInstrs past its budget.
var ErrRunaway = fmt.Errorf("no kernel entry within %d instructions past the slice budget", RunawayInstrs)

// RunLegacy executes instructions until one enters the kernel, returning
// the trap, the cycles consumed and the instruction count, or a nil trap
// and an error (undecodable code, ErrRunaway). The budget only requests a
// reschedule: a poll yields iff cpu.Preempt is set or at least budget
// instructions of this call preceded it. It is the byte-at-a-time,
// one-instruction-per-dispatch reference the fused dispatcher (fexec.go)
// is validated against: the two share every op's semantics (fuseInstr)
// and differ in run tiling, the flat forms, the blocks and the budget
// check.
func RunLegacy(s *Spec, cpu *CPU, code []byte, mem []byte, budget int) (*Trap, uint64, int, error) {
	var cycles uint64
	for n := 0; ; n++ {
		if n >= budget+RunawayInstrs {
			return nil, cycles, n, ErrRunaway
		}
		tr, c, err := step(s, cpu, code, mem, cpu.Preempt || n >= budget)
		cycles += uint64(c)
		if err != nil {
			return nil, cycles, n, err
		}
		if tr != nil {
			return tr, cycles, n + 1, nil
		}
	}
}
