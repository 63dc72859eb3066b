package runcfg

import (
	"flag"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Run)
		want string // substring of the error, "" = valid
	}{
		{"default", func(r *Run) {}, ""},
		{"tc1767", func(r *Run) { r.SoC = "TC1767" }, ""},
		{"dualcore", func(r *Run) { r.SoC = "TC1797DC" }, ""},
		{"scenario", func(r *Run) { r.Faults = "noisy-link" }, ""},
		{"kvplan", func(r *Run) { r.Faults = "corrupt=0.01,drop=0.002" }, ""},
		{"clean-alias", func(r *Run) { r.Faults = "clean" }, ""},
		{"bad-soc", func(r *Run) { r.SoC = "TC9999" }, "unknown preset"},
		{"zero-cycles", func(r *Run) { r.Cycles = 0 }, "zero cycle"},
		{"zero-res", func(r *Run) { r.Resolution = 0 }, "zero resolution"},
		{"bad-faults", func(r *Run) { r.Faults = "bogus-scenario" }, "neither a scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Default()
			tc.mut(&r)
			err := r.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}

func TestFaultPlan(t *testing.T) {
	r := Default()
	if p, err := r.FaultPlan(); err != nil || p != nil {
		t.Fatalf("clean run returned plan %v err %v", p, err)
	}
	r.Faults = "clean"
	if p, err := r.FaultPlan(); err != nil || p != nil {
		t.Fatalf("explicit clean returned plan %v err %v", p, err)
	}
	r.Faults = "noisy-link"
	r.Seed = 42
	p, err := r.FaultPlan()
	if err != nil || p == nil {
		t.Fatalf("scenario: plan %v err %v", p, err)
	}
	if p.Seed != 42 {
		t.Fatalf("plan seed %d, want the run seed 42", p.Seed)
	}
}

func TestSessionSpec(t *testing.T) {
	r := Default()
	r.Faults = "noisy-link"
	r.Degrade = true
	spec, err := r.SessionSpec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Resolution != r.Resolution {
		t.Fatalf("resolution %d, want %d", spec.Resolution, r.Resolution)
	}
	if !spec.DAP {
		t.Fatal("no DAP")
	}
	if spec.Fault == nil || !spec.Fault.Active() {
		t.Fatal("fault plan not attached")
	}
	if spec.Degrade == nil {
		t.Fatal("degrade policy not attached")
	}
}

func TestBindRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	r := Bind(fs, Default())
	err := fs.Parse([]string{
		"-soc", "TC1767", "-seed", "9", "-cycles", "123", "-res", "500",
		"-faults", "noisy-link", "-framed", "-degrade",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Run{SoC: "TC1767", Seed: 9, Cycles: 123, Resolution: 500,
		Faults: "noisy-link", Framed: true, Degrade: true}
	if *r != want {
		t.Fatalf("parsed %+v, want %+v", *r, want)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBindBaseKeepsNonFlagFields(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	def := Default()
	def.Resolution = 777
	r := BindBase(fs, def)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if r.Resolution != 777 {
		t.Fatalf("BindBase dropped non-flag default: %+v", *r)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}
