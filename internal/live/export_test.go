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

// MailboxKeep is the largest capacity a drained mailbox keeps.
const MailboxKeep = mailboxKeep

// MailboxCap reports the capacity of process id's mailbox array.
func (c *Cluster) MailboxCap(id dsys.ProcessID) int {
	p := c.proc(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	return cap(p.buf)
}

// Seeded reports which random sources exist: the network model's, and each
// process's by id-1.
func (c *Cluster) Seeded() (net bool, procs []bool) {
	c.netMu.Lock()
	net = c.rng != nil
	c.netMu.Unlock()
	for _, p := range c.procs {
		p.rngMu.Lock()
		procs = append(procs, p.rng != nil)
		p.rngMu.Unlock()
	}
	return net, procs
}
