package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputGolden pins owagen's bytes in every output format, on stdout
// and through -out, with the summary line on stderr.
func TestOutputGolden(t *testing.T) {
	want := map[string]string{
		"tbin":  "16476c7a483d368eb87e29b2d52cb93f5607a8fe9531d97dbfabe40a366932e6",
		"jsonl": "634dc021b41583689c91f103c1c95d8c5ddf33be53d69ce7f1e381ad30a9e81c",
		"csv":   "1855fd24632a6e9cbbf0afe935c81b9d8d274ab599031b400f90185a59c736f8",
	}
	for format, hash := range want {
		t.Run(format, func(t *testing.T) {
			args := []string{"-days", "1", "-business", "5", "-consumer", "5", "-format", format}
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != hash {
				t.Errorf("stdout sha256 %s, want %s", got, hash)
			}
			if got, want := stderr.String(), "owagen: wrote 2008 records (1 days, 10 users, seed 1)\n"; got != want {
				t.Errorf("stderr %q, want %q", got, want)
			}

			path := filepath.Join(t.TempDir(), "out."+format)
			if err := run(append(args, "-out", path), &stdout, &bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != hash {
				t.Errorf("-out file differs from stdout")
			}
		})
	}
}

// TestRefusals checks that bad flags are refused before anything is
// written, -out included.
func TestRefusals(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-days", "0"}, "days must be positive, got 0"},
		{[]string{"-days", "-3"}, "days must be positive, got -3"},
		{[]string{"-days", "x"}, `invalid value "x" for flag -days`},
		{[]string{"-format", "xml"}, `unknown format "xml"`},
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-business", "0", "-consumer", "0"}, "population is empty"},
		{[]string{"-business", "-1"}, "population is empty"},
		{[]string{"-failures", "1"}, "failure rate out of [0,1)"},
		{[]string{"-days", "1", "extra"}, `unexpected argument "extra"`},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.jsonl")
			var stdout bytes.Buffer
			err := run(append([]string{"-out", path}, tc.args...), &stdout, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
			if stdout.Len() > 0 {
				t.Errorf("refusal wrote %d bytes to stdout", stdout.Len())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("refusal created -out (stat: %v)", err)
			}
		})
	}
}
