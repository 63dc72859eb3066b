package repro_test

import (
	"os/exec"
	"testing"
	"time"
)

// TestExamplesRun executes every runnable example end to end — the
// examples are documentation, and documentation that does not run is
// wrong. Skipped under -short (each example simulates a few hundred
// thousand cycles).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow")
	}
	examples := []string{
		"quickstart",
		"enginecontrol",
		"triggercascade",
		"calibration",
		"selfprofile",
		"dualcore",
	}
	for _, name := range examples {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			done := make(chan error, 1)
			var out []byte
			go func() {
				var err error
				out, err = cmd.CombinedOutput()
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("example failed: %v\n%s", err, out)
				}
				if len(out) == 0 {
					t.Fatal("example produced no output")
				}
			case <-time.After(3 * time.Minute):
				_ = cmd.Process.Kill()
				t.Fatal("example timed out")
			}
		})
	}
}
