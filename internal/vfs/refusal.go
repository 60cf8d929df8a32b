package vfs

// Refusals on the ring path. A prefetch intent the ring turns away rather
// than fails — one whose deadline has already passed when the kernel sees
// it, or one whose pages land after its deadline — completes with one of
// the two sentinel errors below, so callers can tell refused work from
// failed work with errors.Is. Overload is shed before the ring: CROSS-LIB
// halts prefetch at its low memory mark (§4.6) and the kernel postpones
// prefetch past the congestion limit (§4.7).

// Refusal is the error of a submission the ring turned away rather than
// failed. Its field is unexported and it has no constructor, so ErrShed and
// ErrDeadlineExceeded are its only values with a message: the functions
// that record a refusal take a *Refusal, and an ad-hoc error there — one
// callers' errors.Is dispatch would miss — does not compile.
type Refusal struct{ msg string }

func (r *Refusal) Error() string { return r.msg }

// ErrShed marks a submission refused under overload: the work was
// never issued to the device (a prefetch intent whose deadline had
// passed, or one the library saw the device backlog could not meet).
var ErrShed = &Refusal{"vfs: submission shed under overload"}

// ErrDeadlineExceeded marks a prefetch whose pages arrived after its
// virtual deadline: it keeps its N — the pages are cached, merely late.
var ErrDeadlineExceeded = &Refusal{"vfs: submission deadline exceeded"}
