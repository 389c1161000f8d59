package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// guardCounts enforces the exact-count guard across runs: the first run
// of a (workload, seed, n, seconds) in an output directory records its
// counts, and every later run must reproduce them exactly. Within a run,
// report.count already compares repeats.
func (r *report) guardCounts(cfg config) {
	if len(r.counts) == 0 {
		return
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("counts-%s-seed%d-n%d-s%d.json", cfg.workload, cfg.seed, cfg.n, cfg.seconds))
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		var want map[string]int64
		if err := json.Unmarshal(old, &want); err != nil {
			r.failf("count record %s unreadable: %v", path, err)
			return
		}
		for _, k := range sortedKeys(r.counts) {
			w, ok := want[k]
			r.check(!ok || w == r.counts[k], "count %s: %d, an earlier run of this seed recorded %d", k, r.counts[k], w)
		}
	case errors.Is(err, fs.ErrNotExist):
		if r.failed > 0 {
			return // never record counts from a run that failed a check
		}
		data, err := json.Marshal(r.counts)
		if err == nil {
			tmp := path + ".tmp"
			if err = os.WriteFile(tmp, data, 0o644); err == nil {
				err = os.Rename(tmp, path)
			}
		}
		if err != nil {
			r.notef("count record not written: %v", err)
		}
	default:
		r.notef("count record not read: %v", err)
	}
}
