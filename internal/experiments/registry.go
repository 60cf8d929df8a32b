package experiments

import (
	"fmt"
	"sort"
)

// registryEntry describes one reproducible table/figure.
type registryEntry struct {
	ID          string
	Description string
	Run         Runner
}

var registry = []registryEntry{
	{"fig2", "Motivation: multireadrandom, APPonly/fincore/OSonly/Cross (+Table 1)", Fig2},
	{"fig5", "Microbenchmark private/shared × seq/rand (+Table 3)", Fig5},
	{"fig6", "Shared-file readers+writers scaling", Fig6},
	{"tab4", "mmap sequential/random throughput", Table4},
	{"fig7a", "db_bench multireadrandom vs thread count", Fig7a},
	{"fig7b", "db_bench access patterns (ext4, local NVMe)", Fig7b},
	{"fig7c", "db_bench vs memory:DB ratio", Fig7c},
	{"fig7d", "db_bench access patterns on F2FS", Fig7d},
	{"tab5", "Incremental breakdown of CrossPrefetch gains", Table5},
	{"fig8a", "db_bench access patterns on remote NVMe-oF", Fig8a},
	{"fig8b", "Filebench multi-instance workloads", Fig8b},
	{"fig9a", "YCSB A-F", Fig9a},
	{"fig9b", "Snappy compression vs memory ratio", Fig9b},
	{"fig10", "Kernel prefetch-limit sweep", Fig10},
	{"chaos", "Fault-injection sweep: byte-correctness, retries, breaker degradation", Chaos},
	{"serve", "Serve frontend: sync vs submission rings across tenant counts", Serve},
	{"overload", "Tenant isolation under an antagonist scan: budgets, deadlines", Overload},
	{"score", "Online scorecards: accuracy/coverage/pollution across access patterns", Score},
	{"predict", "Competing predictors: counter/MITHRIL ensemble with bandit promotion", Predict},
	{"tier", "Tiered stacks: RAID-0 striping, NVMe-oF remote tier, cross-tier prefetch", Tier},
}

// IDs lists the experiment identifiers in a stable order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description for an experiment ID.
func Describe(id string) string {
	for _, e := range registry {
		if e.ID == id {
			return e.Description
		}
	}
	return ""
}

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
}
