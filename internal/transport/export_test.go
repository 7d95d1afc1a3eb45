package transport

import "time"

// Delivered reports unique packets received.
func (r *Receiver) Delivered() uint64 { return r.deliveredPkts }

// Duplicates reports duplicate datagrams discarded (goodput excludes them,
// per the paper's definition of the goodput rate g_R(t)).
func (r *Receiver) Duplicates() uint64 { return r.dupPkts }

// Sleep returns the current sleep (idle) time Ts.
func (s *Sender) Sleep() time.Duration { return s.sleep }
