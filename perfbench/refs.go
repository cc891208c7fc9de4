package main

import (
	_ "embed"
	"strings"
)

// refsText holds the reference digests: one "key sha256" line per
// output, generated at this commit by gen_refs.sh — bulk_64k and
// churn_10k from affinity-sim -json, fleet_sweep from a serial single
// node.
//
//go:embed refs.txt
var refsText string

func loadRefs() map[string]string {
	refs := map[string]string{}
	for _, line := range strings.Split(refsText, "\n") {
		if key, digest, ok := strings.Cut(strings.TrimSpace(line), " "); ok {
			refs[key] = digest
		}
	}
	return refs
}
