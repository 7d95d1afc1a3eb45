// Package transport implements the window-based, UDP-style transport of
// Section 3 of the RICSA paper (Fig. 2): a sender emits a congestion window
// of Wc(t) datagrams, sleeps Ts(t), and repeats; the receiver reorders
// datagrams, delivers them in order, and returns ACK/NACK feedback carrying
// its measured goodput. The sender adjusts the sleep time with the
// Robbins-Monro stochastic approximation rule (Eq. 1)
//
//	Ts(t_{n+1}) = 1 / ( 1/Ts(t_n) - a/Wc^alpha * (g(t_n) - g*) )
//
// so that goodput converges to the target g* under random losses. An AIMD
// (TCP-like) sender is provided as the contrast baseline: it tracks available
// bandwidth but saw-tooths rather than stabilizing, which is exactly the
// jitter the paper's control channels must avoid.
//
// The protocol runs on the virtual clock of package netsim, making every
// stabilization experiment deterministic and seedable.
package transport

import (
	"time"

	"ricsa/internal/netsim"
)

// Config parameterizes a stabilized sender/receiver pair.
type Config struct {
	// PacketSize is the datagram payload size in bytes.
	PacketSize int
	// Window is the fixed congestion window Wc in packets.
	Window int
	// Target is the goodput target g* in bytes per second.
	Target float64
	// Gain is the Robbins-Monro coefficient a in Eq. 1.
	Gain float64
	// Alpha is the exponent applied to Wc in Eq. 1.
	Alpha float64
	// DecayExp, when positive, decays the gain as a_n = Gain/n^DecayExp.
	// The Robbins-Monro conditions require DecayExp in (0.5, 1]; zero keeps
	// a fixed gain (the practical choice the paper alludes to).
	DecayExp float64
	// InitialSleep is Ts(t_0).
	InitialSleep time.Duration
	// MinSleep and MaxSleep clamp the sleep time to keep Eq. 1's
	// denominator sane when the goodput error is large.
	MinSleep, MaxSleep time.Duration
	// AckInterval is how often the receiver emits ACK/NACK feedback.
	AckInterval time.Duration
	// UpdateInterval is the Robbins-Monro step period (the spacing of t_n).
	UpdateInterval time.Duration
	// MaxNacksPerAck caps the NACK list length in one feedback packet.
	MaxNacksPerAck int
	// MaxFlight bounds nextSeq - cumAck, modelling the receiver buffer of
	// Fig. 2: the sender stops injecting new data when this many packets
	// are outstanding, falling back to retransmissions.
	MaxFlight int
	// Smoothing is the EWMA weight for the sender's goodput estimate
	// (0 < Smoothing <= 1; small values smooth more). The raw per-step
	// measurement is heavily quantized by window bursts, so the estimate
	// fed into Eq. 1 is smoothed.
	Smoothing float64
	// RetransHold is the minimum interval between retransmissions of the
	// same sequence number. Without it, NACKs for packets still queued in
	// the bottleneck trigger duplicate sends that waste the very capacity
	// the stabilizer is trying to meter.
	RetransHold time.Duration
}

// DefaultConfig returns parameters suitable for control channels of a few
// Mbit/s, the paper's regime ("several KBytes or MBytes ... fairly small
// bandwidth but with smooth transport dynamics").
func DefaultConfig(target float64) Config {
	return Config{
		PacketSize:     1000,
		Window:         16,
		Target:         target,
		Gain:           0.35,
		Alpha:          1.0,
		DecayExp:       0,
		InitialSleep:   20 * time.Millisecond,
		MinSleep:       200 * time.Microsecond,
		MaxSleep:       500 * time.Millisecond,
		AckInterval:    20 * time.Millisecond,
		UpdateInterval: 50 * time.Millisecond,
		MaxNacksPerAck: 64,
		MaxFlight:      4096,
		Smoothing:      0.25,
		RetransHold:    300 * time.Millisecond,
	}
}

// fillDefaults substitutes the DefaultConfig value for every field left
// at its zero value. Explicitly set but nonsensical values (a negative
// window, Smoothing > 1) are NOT repaired here — validate rejects them
// with a typed error, instead of the silent mid-flow misbehavior the old
// fix-up policy allowed.
func (c *Config) fillDefaults() {
	d := DefaultConfig(c.Target)
	if c.PacketSize == 0 {
		c.PacketSize = d.PacketSize
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.Gain == 0 {
		c.Gain = d.Gain
	}
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.InitialSleep == 0 {
		c.InitialSleep = d.InitialSleep
	}
	if c.MinSleep == 0 {
		c.MinSleep = d.MinSleep
	}
	if c.MaxSleep == 0 {
		c.MaxSleep = d.MaxSleep
	}
	if c.AckInterval == 0 {
		c.AckInterval = d.AckInterval
	}
	if c.UpdateInterval == 0 {
		c.UpdateInterval = d.UpdateInterval
	}
	if c.MaxNacksPerAck == 0 {
		c.MaxNacksPerAck = d.MaxNacksPerAck
	}
	if c.MaxFlight == 0 {
		c.MaxFlight = d.MaxFlight
	}
	if c.Smoothing == 0 {
		c.Smoothing = d.Smoothing
	}
	if c.RetransHold == 0 {
		c.RetransHold = d.RetransHold
	}
}

// ConfigError is the typed construction error for a nonsensical Config
// field: which field, and why it is rejected.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return "transport: invalid config: " + e.Field + " " + e.Reason
}

// Validate checks a config for nonsensical settings. Zero values mean
// "use the default" and always pass; anything explicitly set must be
// sane. Constructors (NewSender, NewReceiver, NewAIMDSender) run this
// after default filling, so a bad config fails at construction with a
// *ConfigError instead of misbehaving mid-flow.
func (c Config) Validate() error {
	filled := c
	filled.fillDefaults()
	switch {
	case filled.PacketSize <= 0:
		return &ConfigError{"PacketSize", "must be positive"}
	case filled.Window <= 0:
		return &ConfigError{"Window", "must be positive"}
	case filled.Target < 0:
		return &ConfigError{"Target", "must be non-negative"}
	case filled.Gain < 0:
		return &ConfigError{"Gain", "must be non-negative"}
	case filled.DecayExp < 0 || filled.DecayExp > 1:
		return &ConfigError{"DecayExp", "must be in [0, 1]"}
	case filled.InitialSleep <= 0:
		return &ConfigError{"InitialSleep", "must be positive"}
	case filled.MinSleep <= 0:
		return &ConfigError{"MinSleep", "must be positive"}
	case filled.MaxSleep <= 0:
		return &ConfigError{"MaxSleep", "must be positive"}
	case filled.MinSleep > filled.MaxSleep:
		return &ConfigError{"MinSleep", "exceeds MaxSleep"}
	case filled.AckInterval <= 0:
		return &ConfigError{"AckInterval", "must be positive"}
	case filled.UpdateInterval <= 0:
		return &ConfigError{"UpdateInterval", "must be positive"}
	case filled.MaxNacksPerAck <= 0:
		return &ConfigError{"MaxNacksPerAck", "must be positive"}
	case filled.MaxFlight <= 0:
		return &ConfigError{"MaxFlight", "must be positive"}
	case filled.Smoothing <= 0 || filled.Smoothing > 1:
		return &ConfigError{"Smoothing", "must be in (0, 1]"}
	case filled.RetransHold <= 0:
		return &ConfigError{"RetransHold", "must be positive"}
	}
	return nil
}

// dataMsg is a datagram payload.
type dataMsg struct {
	Seq uint64
}

// ackMsg is the receiver's feedback: cumulative ACK, a bounded NACK list of
// missing sequence numbers, and the receiver-measured goodput (bytes/s).
type ackMsg struct {
	CumAck  uint64 // all sequence numbers < CumAck received
	Nacks   []uint64
	Goodput float64
}

// Sample is one point of a goodput trace.
type Sample struct {
	At      netsim.Time
	Goodput float64       // bytes per second measured over the last step
	Sleep   time.Duration // Ts at that instant (0 for AIMD traces)
	Window  int           // congestion window (constant for stabilized)
}
