package core

import (
	"fmt"
	"strings"

	"repro/internal/netdev"
	"repro/internal/topo"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// ParseMode resolves an affinity mode from its common spellings,
// case-insensitively: none|no|noaff, proc|process, irq|int|interrupt,
// full, partition|part. CLI flags and the HTTP API share this parser, so
// both accept identical vocabularies.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none", "no", "noaff":
		return ModeNone, nil
	case "proc", "process":
		return ModeProc, nil
	case "irq", "int", "interrupt":
		return ModeIRQ, nil
	case "full":
		return ModeFull, nil
	case "partition", "part":
		return ModePartition, nil
	}
	return 0, fmt.Errorf("unknown affinity mode %q (none|proc|irq|full|partition)", s)
}

// ParseDirection resolves a transfer direction: tx|send|transmit or
// rx|recv|receive, case-insensitively.
func ParseDirection(s string) (ttcp.Direction, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tx", "send", "transmit":
		return ttcp.TX, nil
	case "rx", "recv", "receive":
		return ttcp.RX, nil
	}
	return 0, fmt.Errorf("unknown direction %q (tx|rx)", s)
}

// ParseWorkload resolves a workload spec (workload.Parse): CLI flags,
// the HTTP API and the examples all share this parser.
func ParseWorkload(s string) (*workload.Spec, error) {
	return workload.Parse(s)
}

// ParsePolicy resolves a built-in placement policy, accepting the same
// aliases ParseMode does for the mode-shaped policies (proc, int,
// interrupt, part) on top of the canonical names
// none|process|irq|full|partition|rotate|rss|flowdirector.
func ParsePolicy(s string) (topo.PlacementPolicy, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	switch name {
	case "proc":
		name = "process"
	case "int", "interrupt":
		name = "irq"
	case "part":
		name = "partition"
	case "fd", "ntuple":
		name = "flowdirector"
	}
	pol, err := topo.PolicyByName(name)
	if err != nil {
		return nil, fmt.Errorf("unknown placement policy %q (none|process|irq|full|partition|rotate|rss|flowdirector)", s)
	}
	return pol, nil
}

// ParseCoalesce resolves an interrupt-coalescing spec
// (netdev.ParseCoalesce); empty means the legacy throttle (nil).
func ParseCoalesce(s string) (*netdev.CoalesceConfig, error) {
	return netdev.ParseCoalesce(s)
}
