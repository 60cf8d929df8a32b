package experiments

// The synchronous serve baseline lives in its own file: the ringgate in
// `make check` forbids direct read/write calls in serve.go and
// cmd/crosserve (the ring frontend must go through the Ring API), and
// this file is the one deliberate exemption — it IS the baseline the
// rings are measured against.

import (
	"sync"

	"repro/internal/simtime"
)

// replaySync drives the baseline frontend: every session is its own
// thread issuing one blocking read call per op — one kernel crossing and
// one device command at a time, the dispatch pattern the rings replace.
// It replays the exact same offset schedule as replayRings.
func replaySync(c serveRun, names []string, fileBytes int64, lat []simtime.Duration) (simtime.Duration, error) {
	sys := c.sys
	perTenant := c.Clients * c.Ops
	ends := &serveEndpoints{}
	var wg sync.WaitGroup
	for t := 0; t < c.Tenants; t++ {
		for s := 0; s < c.Clients; s++ {
			t, s := t, s
			wg.Add(1)
			go func() {
				defer wg.Done()
				tl := simtime.NewTimeline(0)
				f, err := sys.Open(tl, names[t])
				if err != nil {
					ends.note(0, err)
					return
				}
				defer f.Close(tl)
				buf := make([]byte, c.IOSize)
				for i, off := range c.schedule(t, s, fileBytes) {
					t0 := tl.Now()
					if _, err := f.ReadAt(tl, buf, off); err != nil {
						ends.note(0, err)
						return
					}
					lat[t*perTenant+s*c.Ops+i] = tl.Now().Sub(t0)
				}
				ends.note(tl.Now(), nil)
			}()
		}
	}
	wg.Wait()
	ends.mu.Lock()
	defer ends.mu.Unlock()
	return simtime.Duration(ends.last), ends.err
}
