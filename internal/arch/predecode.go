// The decode grid: Step decodes and compiles every instruction it
// executes, yet the code bytes of a loaded function never change.
// Predecode walks a function once — at compile time for compiler output
// — and caches the decoded instructions with a PC index; the fusion
// planner and compiler (fuse.go) and the fused executor (fexec.go) work
// over this cache, and vet's pc-alignment pass reads it. Step keeps
// decoding byte at a time, so a hand-built stream that does not predecode
// still fails where it would.

package arch

// Predecoded is an immutable instruction cache for one function's code.
// It is safe to share across CPUs (and goroutines) once built: execution
// never mutates it.
type Predecoded struct {
	instrs []Instr
	// index[pc] is 1 + the index into instrs of the instruction starting
	// at pc, 0 when pc is inside an encoding: a fresh array is already
	// "nothing starts here" everywhere.
	index []int32
}

// Predecode decodes every instruction in code, walking linearly from PC 0.
// The code generator emits decodable placeholders even for unreachable
// slots, so any stream it produces predecodes fully; hand-built streams
// that do not decode end-to-end return an error and callers fall back to
// the byte-at-a-time path. n is the instruction count when the caller
// knows it (the code generator does), else 0; it only sizes the cache.
func Predecode(s *Spec, code []byte, n int) (*Predecoded, error) {
	p := &Predecoded{instrs: make([]Instr, 0, n), index: make([]int32, len(code))}
	for pc := uint32(0); int(pc) < len(code); {
		in, err := Decode(s, code, pc)
		if err != nil {
			return nil, err
		}
		p.instrs = append(p.instrs, in)
		p.index[pc] = int32(len(p.instrs))
		pc += in.Size
	}
	return p, nil
}

// NumInstrs reports how many instructions were decoded.
func (p *Predecoded) NumInstrs() int { return len(p.instrs) }

// CodeLen reports the length in bytes of the code that was decoded.
func (p *Predecoded) CodeLen() int { return len(p.index) }

// EndingAt returns the instruction that ends at pc, the one a thread
// stopped at pc has just executed. ok is false when no instruction ends
// there: pc is 0, past the code, or inside an encoding.
func (p *Predecoded) EndingAt(pc uint32) (in Instr, ok bool) {
	var next int32 // 1 + the index of the instruction starting at pc
	switch n := int64(len(p.index)); {
	case int64(pc) < n:
		next = p.index[pc]
	case int64(pc) == n:
		next = int32(len(p.instrs)) + 1
	}
	if next <= 1 {
		return Instr{}, false
	}
	return p.instrs[next-2], true
}

// indexAt maps a PC to its cache slot, or -1 if pc does not start an
// instruction (out of range, or inside a multi-byte encoding).
func (p *Predecoded) indexAt(pc uint32) int32 {
	if int64(pc) >= int64(len(p.index)) {
		return -1
	}
	return p.index[pc] - 1
}
