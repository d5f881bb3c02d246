package core

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyRecordsGoImportsTelemetry pins the package's record boundary:
// every entry point takes columns but the record forms in records.go, so
// no other non-test file may import telemetry.
func TestOnlyRecordsGoImportsTelemetry(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "autosens/internal/telemetry" && name != "records.go" {
				t.Errorf("%s imports telemetry; only records.go may", name)
			}
		}
	}
}
