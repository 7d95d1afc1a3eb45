package main

// A dead reference cycle: every helper calls the next, so each has a
// referrer, yet nothing reachable from main reaches any of them.

type agent struct{ net *agentNet } // want "unreachable: type agent is not reachable"

type agentNet struct{ agents map[string]*agent } // want "unreachable: type agentNet"

func (a *agent) handle(m string) { a.onSetup(m) } // want "unreachable: method agent\.handle"

func (a *agent) onSetup(m string) { a.net.send(m) } // want "unreachable: method agent\.onSetup"

func (n *agentNet) send(m string) { // want "unreachable: method agentNet\.send"
	for _, a := range n.agents {
		a.handle(m)
	}
}
