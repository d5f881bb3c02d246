package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagDefaults pins every sensd flag's name, default and usage text:
// operators script against them, so the help output may change only on
// purpose. Regenerate with
//
//	go build -o /tmp/sensd ./cmd/sensd
//	/tmp/sensd -h 2>&1 | tail -n +2 > cmd/sensd/testdata/flags.golden
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("sensd", flag.ContinueOnError)
	newFlags(fs)
	var got strings.Builder
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flag defaults differ from testdata/flags.golden:\n%s", got.String())
	}
}
