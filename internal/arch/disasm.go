// Disassembler, used by cmd/emc -S, debugging and golden tests.

package arch

import (
	"fmt"
	"strings"
)

// Disassemble renders the whole code slice, one instruction per line,
// prefixed with the byte offset. Decoding stops at the first undecodable
// byte (reported in the output).
func Disassemble(s *Spec, code []byte) string {
	var b strings.Builder
	pc := uint32(0)
	for int(pc) < len(code) {
		in, err := Decode(s, code, pc)
		if err != nil {
			fmt.Fprintf(&b, "%6d: <undecodable: %v>\n", pc, err)
			break
		}
		fmt.Fprintf(&b, "%6d: %s\n", pc, in)
		pc += in.Size
	}
	return b.String()
}
