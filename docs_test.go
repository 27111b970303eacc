package ebrrq_test

import (
	"os"
	"regexp"
	"testing"
)

var (
	docCodeRE    = regexp.MustCompile("(?s)```.*?```|`[^`]*`") // fenced blocks and inline spans
	docMakeRE    = regexp.MustCompile(`\bmake ([a-z][a-z-]*)`)
	docPathRE    = regexp.MustCompile(`\b(cmd/[a-z]+|results/[\w.-]*\w)`)
	makeTargetRE = regexp.MustCompile(`(?m)^([a-z][a-z-]*):`)
)

// TestDocsReferToWhatExists keeps the living documents honest about the
// tooling they point at: every `make <target>` in a code span or fenced block
// names a Makefile target, every cmd/<name> is a directory and every
// results/<file> exists. CHANGES.md, ROADMAP.md and ISSUE.md are history and
// are not scanned; benchmark/README.md belongs to the benchmark's own tree.
func TestDocsReferToWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRE.FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range docCodeRE.FindAll(text, -1) {
			for _, m := range docMakeRE.FindAllSubmatch(code, -1) {
				if !targets[string(m[1])] {
					t.Errorf("%s: `make %s` is not a Makefile target", doc, m[1])
				}
			}
		}
		for _, path := range docPathRE.FindAll(text, -1) {
			if _, err := os.Stat(string(path)); err != nil {
				t.Errorf("%s: %s does not exist", doc, path)
			}
		}
	}
}
