// Package codesrv provides the shared code repository. The paper's
// prototype used NFS "to create the illusion that the object code always
// resides in the local disk repository" (§3.4): a node receiving an object
// for which it has no code fetches the architecture-appropriate code object
// by OID. This package is that illusion: a store keyed by (code OID,
// architecture), populated once per program, read by every node, with a
// simulated fetch latency standing in for the NFS round trip.
package codesrv

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/netsim"
	"repro/internal/oid"
)

// Server is the repository.
type Server struct {
	byOID map[oid.OID]*codegen.ObjectCode
	// FetchLatency simulates the NFS read for a cold fetch.
	FetchLatency netsim.Micros
	// fetches is atomic, so a reader on another goroutine sees a whole
	// count.
	fetches uint64
}

// New builds a repository holding every code object of the program, for
// every architecture.
func New(p *codegen.Program) *Server {
	s := &Server{byOID: map[oid.OID]*codegen.ObjectCode{}, FetchLatency: 2000}
	for _, oc := range p.Objects {
		s.byOID[oc.CodeOID] = oc
	}
	return s
}

// Fetch returns the code object for (codeOID, architecture), with the
// simulated latency to charge to the caller. It fails if the program never
// defined the OID — the "code not found anywhere" case.
func (s *Server) Fetch(code oid.OID, id arch.ID) (*codegen.ObjectCode, *codegen.ArchCode, netsim.Micros, error) {
	oc, ok := s.byOID[code]
	if ok {
		if ac := oc.PerArch[id]; ac != nil {
			atomic.AddUint64(&s.fetches, 1)
			return oc, ac, s.FetchLatency, nil
		}
	}
	return nil, nil, 0, fmt.Errorf("codesrv: no code object %v for %v", code, id)
}

// Fetches reports how many cold fetches were served.
func (s *Server) Fetches() uint64 { return atomic.LoadUint64(&s.fetches) }
