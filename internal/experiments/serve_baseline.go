package experiments

// The synchronous serve baseline lives in its own file: the ringgate in
// `make check` forbids direct read/write calls in serve.go (the ring
// frontend must go through the Ring API), and this file is the one
// deliberate exemption — it IS the baseline the rings are measured
// against.

// replaySync is a session of the baseline frontend: one blocking read
// call per op — one kernel crossing and one device command at a time, the
// dispatch pattern the rings replace.
func (c serveRun) replaySync(s *serveSession) error {
	buf := make([]byte, c.IOSize)
	for i := s.first; i < s.first+c.Ops; i++ {
		off := s.offset(c.IOSize)
		t0 := s.TL.Now()
		n, err := s.f.ReadAt(s.TL, buf, off)
		if err != nil {
			return err
		}
		s.lat[i] = s.TL.Now().Sub(t0)
		s.Ops++
		s.Bytes += int64(n)
		s.Gate()
	}
	return nil
}
