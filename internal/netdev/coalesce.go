// Interrupt-coalescing models. The paper's PRO/1000s throttle with a
// single fixed minimum gap between interrupts (NICConfig.CoalesceCycles,
// the legacy mode and still the default); modern devices expose the
// richer ethtool vocabulary this file models — an absolute timer that
// delays the first interrupt after idle, a frame-count threshold that
// fires early under load, and an adaptive window that widens under burst
// and narrows when traffic thins (the cure of "Sorting Reordered Packets
// with Interrupt Coalescing", PAPERS.md: a wide-enough window lets a
// re-steered flow's old queue drain before the new queue interrupts).
//
// Like fault and workload specs, a coalescing setting is declarative
// construction-time configuration parsed from a small text spec
// ("mode,usecs=..,frames=.." or @file.json), so the result-cache
// fingerprint always sees exactly the behaviour a run was given.
package netdev

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// Coalescing mode names. The zero value selects legacy.
const (
	// CoalesceLegacy is the paper-era throttle: raise immediately unless
	// the previous interrupt was less than CoalesceCycles ago.
	CoalesceLegacy = "legacy"
	// CoalesceTimer delays every first-interrupt-after-idle by a fixed
	// absolute window (ethtool rx-usecs): one interrupt per window under
	// load, added latency when idle.
	CoalesceTimer = "timer"
	// CoalesceFrames arms the timer window but fires early once a frame
	// count accumulates (ethtool rx-frames over rx-usecs).
	CoalesceFrames = "frames"
	// CoalesceAdaptive starts from the minimum window and doubles it
	// whenever a window fills with a burst (≥ Frames events), halving
	// back when a window closes nearly empty — adaptive-rx moderation.
	CoalesceAdaptive = "adaptive"
)

// CoalesceConfig selects and parameterizes a device's coalescing model.
// The zero value (Mode "") is the legacy fixed-gap throttle, byte-
// identical to the behaviour before this knob existed.
type CoalesceConfig struct {
	// Mode is one of "", legacy, timer, frames, adaptive.
	Mode string `json:"mode"`
	// Usecs is the timer window in microseconds (timer and frames
	// modes).
	Usecs uint64 `json:"usecs,omitempty"`
	// Frames is the early-fire threshold (frames mode) or the burst
	// threshold that widens the adaptive window.
	Frames int `json:"frames,omitempty"`
	// MinUsecs and MaxUsecs bound the adaptive window.
	MinUsecs uint64 `json:"min_usecs,omitempty"`
	MaxUsecs uint64 `json:"max_usecs,omitempty"`
}

// Legacy reports whether the config is the paper-era fixed-gap throttle.
func (c CoalesceConfig) Legacy() bool {
	return c.Mode == "" || c.Mode == CoalesceLegacy
}

// ApplyDefaults fills unset parameters with ethtool-flavoured defaults.
func (c *CoalesceConfig) ApplyDefaults() {
	switch c.Mode {
	case CoalesceTimer:
		if c.Usecs == 0 {
			c.Usecs = 50
		}
	case CoalesceFrames:
		if c.Usecs == 0 {
			c.Usecs = 200
		}
		if c.Frames == 0 {
			c.Frames = 8
		}
	case CoalesceAdaptive:
		if c.MinUsecs == 0 {
			c.MinUsecs = 5
		}
		if c.MaxUsecs == 0 {
			c.MaxUsecs = 250
		}
		if c.Frames == 0 {
			c.Frames = 8
		}
	}
}

// Validate rejects configs the device cannot honour.
func (c CoalesceConfig) Validate() error {
	if c.Frames < 0 {
		return fmt.Errorf("frames %d is negative", c.Frames)
	}
	switch c.Mode {
	case "", CoalesceLegacy:
		return nil
	case CoalesceTimer:
		if c.Usecs == 0 {
			return fmt.Errorf("timer mode needs usecs > 0")
		}
	case CoalesceFrames:
		if c.Usecs == 0 || c.Frames < 1 {
			return fmt.Errorf("frames mode needs usecs > 0 and frames >= 1")
		}
	case CoalesceAdaptive:
		if c.MinUsecs == 0 || c.MaxUsecs < c.MinUsecs || c.Frames < 1 {
			return fmt.Errorf("adaptive mode needs 0 < min <= max and frames >= 1")
		}
	default:
		return fmt.Errorf("unknown mode %q (legacy|timer|frames|adaptive)", c.Mode)
	}
	return nil
}

// String renders the config in spec form (diagnostics, fingerprints).
func (c CoalesceConfig) String() string {
	if c.Legacy() {
		return CoalesceLegacy
	}
	var b strings.Builder
	b.WriteString(c.Mode)
	if c.Usecs != 0 {
		fmt.Fprintf(&b, ",usecs=%d", c.Usecs)
	}
	if c.Frames != 0 {
		fmt.Fprintf(&b, ",frames=%d", c.Frames)
	}
	if c.MinUsecs != 0 {
		fmt.Fprintf(&b, ",min=%d", c.MinUsecs)
	}
	if c.MaxUsecs != 0 {
		fmt.Fprintf(&b, ",max=%d", c.MaxUsecs)
	}
	return b.String()
}

// ParseCoalesce resolves "" (legacy: nil, nil), "@file.json" (a JSON
// CoalesceConfig) or the inline form of package spec, e.g.
// "timer,usecs=100" or "adaptive,min=5,max=250,frames=8". Defaults are
// applied and the result validated.
func ParseCoalesce(s string) (*CoalesceConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var c CoalesceConfig
	if path, ok := strings.CutPrefix(s, "@"); ok {
		if err := spec.ReadFile(path, &c); err != nil {
			return nil, err
		}
	} else {
		mode, err := spec.Bind(s, spec.Keys{"usecs": &c.Usecs, "frames": &c.Frames,
			"min": &c.MinUsecs, "min_usecs": &c.MinUsecs, "max": &c.MaxUsecs, "max_usecs": &c.MaxUsecs})
		if err != nil {
			return nil, err
		}
		c.Mode = mode
	}
	c.ApplyDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Legacy() {
		c.Mode = CoalesceLegacy
	}
	return &c, nil
}
