package telemetry

import (
	"flag"
	"testing"
)

func TestFormatFlagParsesAndRestricts(t *testing.T) {
	ff := NewFormatFlag(JSONL)
	if ff.Format() != JSONL || ff.String() != "jsonl" {
		t.Fatalf("default = %v / %q", ff.Format(), ff.String())
	}
	for name, want := range map[string]Format{"jsonl": JSONL, "json": JSONL, "csv": CSV, "tbin": TBIN} {
		if err := ff.Set(name); err != nil {
			t.Fatalf("Set(%q): %v", name, err)
		}
		if ff.Format() != want {
			t.Fatalf("Set(%q) selected %v, want %v", name, ff.Format(), want)
		}
	}
	if err := ff.Set("protobuf"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if got := ff.Choices(); got != "jsonl, csv, tbin" {
		t.Fatalf("Choices() = %q", got)
	}
}

func TestFormatFlagWithFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ff := NewFormatFlag(JSONL)
	fs.Var(ff, "format", "telemetry format: "+ff.Choices())
	if err := fs.Parse([]string{"-format", "tbin"}); err != nil {
		t.Fatal(err)
	}
	if ff.Format() != TBIN {
		t.Fatalf("parsed format %v, want TBIN", ff.Format())
	}
	var nilFF *FormatFlag
	if nilFF.String() != "" {
		t.Fatal("nil FormatFlag String() not empty")
	}
}
