package events

import "testing"

// commits records the WAL commit windows it is handed.
type commits struct {
	Nop
	blocks int
	bytes  int64
}

func (c *commits) OnWALCommit(blocks int, bytes int64) {
	c.blocks += blocks
	c.bytes += bytes
}

// TestMultiForwardsWALCommits: a fan-out hands a WAL commit window to
// every member that takes one, nested fan-outs included, and skips the
// rest.
func TestMultiForwardsWALCommits(t *testing.T) {
	var a, b commits
	obs := Multi(&a, Nop{}, Multi(&b, Nop{}))
	co, ok := obs.(interface{ OnWALCommit(int, int64) })
	if !ok {
		t.Fatal("a fan-out does not take WAL commit windows")
	}
	co.OnWALCommit(3, 100)
	for name, c := range map[string]*commits{"direct": &a, "nested": &b} {
		if c.blocks != 3 || c.bytes != 100 {
			t.Errorf("%s member saw (%d, %d), want (3, 100)", name, c.blocks, c.bytes)
		}
	}
}
