package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target); targets are checked
// below when they point into the repository.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// stripCodeFences removes ``` fenced blocks — link syntax inside quoted
// code is not a document link.
func stripCodeFences(s string) string {
	var out []string
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// generatedDocs are retrieval artifacts: they quote external documents
// whose links and commands are not this repository's to fix.
var generatedDocs = map[string]bool{"PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true}

// markdownFiles lists every *.md file under the repository root outside
// .git, hidden directories included: .github and the other dot-directories
// hold checked-in documents too.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	return mdFiles
}

// TestMarkdownLinks walks every *.md file in the repository and verifies
// that relative links resolve to existing files. External (http/mailto)
// links are skipped — CI has no network and their liveness is not this
// repository's contract. The CI docs job runs this test by name.
func TestMarkdownLinks(t *testing.T) {
	for _, md := range markdownFiles(t) {
		if generatedDocs[filepath.Base(md)] {
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(stripCodeFences(string(data)), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			}
			// Strip an intra-document anchor; a bare anchor targets this file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}

var (
	// makeRule matches a Makefile rule header ("name:" but not "name :=").
	makeRule = regexp.MustCompile(`^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
	// inlineCode matches a backtick code span.
	inlineCode = regexp.MustCompile("`([^`\n]+)`")
	// taskChecklist matches a Markdown task-list item ("- [ ]" or "- [x]").
	taskChecklist = regexp.MustCompile(`(?m)^\s*[-*] \[[ xX]\] `)
)

// makeTargets returns the targets named by one `make ...` command line:
// every word after make up to a comment, skipping flags and VAR=value
// overrides. A line that does not start with make names none.
func makeTargets(cmd string) []string {
	fields := strings.Fields(cmd)
	if len(fields) == 0 || fields[0] != "make" {
		return nil
	}
	var targets []string
	for _, f := range fields[1:] {
		if strings.HasPrefix(f, "#") {
			break
		}
		if strings.HasPrefix(f, "-") || strings.Contains(f, "=") {
			continue
		}
		targets = append(targets, f)
	}
	return targets
}

// TestMarkdownMakeTargets requires every `make <target>` a checked-in
// document names — in a code span, or at the start of a line inside a
// code fence — to be a rule of the Makefile, so a deleted target cannot
// linger in the docs. Change logs and planning notes record targets that
// have since been removed, so they are skipped with the generated files;
// a planning note is any document that holds a task checklist.
func TestMarkdownMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if m := makeRule.FindStringSubmatch(line); m != nil {
			rules[m[1]] = true
		}
	}
	history := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}
	for _, md := range markdownFiles(t) {
		if base := filepath.Base(md); generatedDocs[base] || history[base] {
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		if taskChecklist.Match(data) {
			continue
		}
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "```") {
				inFence = !inFence
				continue
			}
			var cmds []string
			if inFence {
				cmds = []string{trimmed}
			} else {
				for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
					cmds = append(cmds, m[1])
				}
			}
			for _, cmd := range cmds {
				for _, target := range makeTargets(cmd) {
					if !rules[target] {
						t.Errorf("%s:%d: `make %s` names no Makefile target", md, i+1, target)
					}
				}
			}
		}
	}
}
