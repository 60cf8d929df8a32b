package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// armGateCheck is the conformance core of the arm-export tests: every name
// in names must satisfy present. Factored out so the test can prove the
// check actually fails on a missing arm (the negative leg below) — a
// gate that cannot fail is not a gate.
func armGateCheck(names []string, present func(string) bool) error {
	for _, n := range names {
		if !present(n) {
			return fmt.Errorf("arm %q not exported", n)
		}
	}
	return nil
}

// registeredArmNames collects every arm's name, failing on a blank or
// duplicate registration (a new Arm constant without an armNames entry
// would surface here before it surfaces as an unlabeled metric).
func registeredArmNames(t *testing.T) []string {
	t.Helper()
	names := make([]string, 0, NumArms)
	seen := make(map[string]bool, NumArms)
	for a := Arm(0); a < NumArms; a++ {
		n := a.String()
		if n == "" {
			t.Fatalf("arm %d has no registered name", a)
		}
		if seen[n] {
			t.Fatalf("duplicate arm name %q", n)
		}
		seen[n] = true
		names = append(names, n)
	}
	return names
}

// TestArmGateExport enforces the armgate invariant on the telemetry
// side: every registered predictor arm appears, by name, in the export
// snapshot's Arms table and as an arm="..." label series in the
// Prometheus text output.
func TestArmGateExport(t *testing.T) {
	rec := NewRecorder(8)
	for a := Arm(0); a < NumArms; a++ {
		rec.ArmInserted(a, 1)
	}
	s := rec.Snapshot()
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()

	names := registeredArmNames(t)
	present := func(n string) bool {
		_, ok := s.Arms[n]
		return ok && strings.Contains(prom, `arm="`+n+`"`)
	}
	if err := armGateCheck(names, present); err != nil {
		t.Fatalf("armgate: %v", err)
	}
	if len(s.Arms) != len(names) {
		t.Fatalf("export Arms table has %d entries, %d arms registered", len(s.Arms), len(names))
	}

	// Negative leg: the same check must reject an arm the export does
	// not carry, or the gate is vacuous.
	if err := armGateCheck(append(names, "no-such-arm"), present); err == nil {
		t.Fatal("armgate check accepted an unregistered arm name")
	}
}
