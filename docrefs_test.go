package twoldag

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGoFilesNameOnlyRootDocs: every upper-case Markdown file that a
// .go file of the repository names (README.md, ROADMAP.md, ...) is a
// file of the repository root, so no comment sends its reader to a
// document that is not there.
func TestGoFilesNameOnlyRootDocs(t *testing.T) {
	doc := regexp.MustCompile(`\b[A-Z][A-Z0-9_]*\.md\b`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for n, line := range strings.Split(string(src), "\n") {
			for _, name := range doc.FindAllString(line, -1) {
				if info, err := os.Stat(name); err != nil || !info.Mode().IsRegular() {
					t.Errorf("%s:%d names %s, which is not a file of the repository root", path, n+1, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
