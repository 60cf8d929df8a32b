// compression: parallel Snappy-style compression of a file set under a
// constrained memory budget — the paper's Figure 9b scenario, where
// CrossPrefetch's aggressive prefetching and eviction keeps a streaming
// working set flowing through limited memory.
package main

import (
	"fmt"
	"log"

	crossprefetch "repro"
	"repro/internal/snappy"
)

func run(a crossprefetch.Approach, memMB int64) snappy.AppResult {
	res, err := snappy.RunApp(snappy.AppConfig{
		Sys: crossprefetch.NewSystem(crossprefetch.Config{
			MemoryBytes: memMB << 20,
			Approach:    a,
		}),
		Files:     16,
		FileBytes: 8 << 20,
		Threads:   4,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("compressing 16 x 8MB files with 4 threads")
	for _, memMB := range []int64{32, 64, 128} {
		app := run(crossprefetch.AppOnly, memMB)
		cross := run(crossprefetch.CrossPredictOpt, memMB)
		fmt.Printf("  mem=%3dMB (1:%d): APPonly %7.1f MB/s | CrossPrefetch %7.1f MB/s (%.2fx), ratio %.2f\n",
			memMB, 128/memMB, app.MBPerSec, cross.MBPerSec,
			cross.MBPerSec/app.MBPerSec, cross.Ratio)
	}
}
