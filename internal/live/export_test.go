package live

import "repro/internal/dsys"

// Mailbox reports process id's buffered backlog (messages no receiver has
// taken) and how many of its tasks are parked waiting for a delivery.
func (c *Cluster) Mailbox(id dsys.ProcessID) (backlog, parked int) {
	p := c.proc(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf) - p.head, len(p.parked)
}

func (c *Cluster) BacklogKinds(id dsys.ProcessID) map[string]int {
	p := c.proc(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[string]int{}
	for _, m := range p.buf[p.head:] {
		out[m.Kind+"/"+m.From.String()]++
	}
	return out
}
