package transport

import (
	"errors"
	"testing"
	"time"

	"ricsa/internal/netsim"
)

// TestConfigValidateRejectsNonsense pins the construction contract: zero
// fields mean "use the default" and pass, while explicitly nonsensical
// settings fail with a *ConfigError naming the offending field.
func TestConfigValidateRejectsNonsense(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults fill in): %v", err)
	}
	if err := DefaultConfig(1e6).Validate(); err != nil {
		t.Fatalf("DefaultConfig must validate: %v", err)
	}

	bad := []struct {
		field string
		mut   func(*Config)
	}{
		{"PacketSize", func(c *Config) { c.PacketSize = -1 }},
		{"Window", func(c *Config) { c.Window = -4 }},
		{"Target", func(c *Config) { c.Target = -1e6 }},
		{"Gain", func(c *Config) { c.Gain = -0.35 }},
		{"DecayExp", func(c *Config) { c.DecayExp = 1.5 }},
		{"InitialSleep", func(c *Config) { c.InitialSleep = -time.Millisecond }},
		{"MinSleep", func(c *Config) { c.MinSleep = -time.Microsecond }},
		{"MaxSleep", func(c *Config) { c.MaxSleep = -time.Second }},
		{"MinSleep", func(c *Config) { c.MinSleep = time.Second; c.MaxSleep = time.Millisecond }},
		{"AckInterval", func(c *Config) { c.AckInterval = -time.Millisecond }},
		{"UpdateInterval", func(c *Config) { c.UpdateInterval = -time.Millisecond }},
		{"MaxNacksPerAck", func(c *Config) { c.MaxNacksPerAck = -1 }},
		{"MaxFlight", func(c *Config) { c.MaxFlight = -1 }},
		{"Smoothing", func(c *Config) { c.Smoothing = 1.5 }},
		{"Smoothing", func(c *Config) { c.Smoothing = -0.25 }},
		{"RetransHold", func(c *Config) { c.RetransHold = -time.Second }},
	}
	for _, tc := range bad {
		cfg := DefaultConfig(1e6)
		tc.mut(&cfg)
		err := cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: Validate() = %v, want *ConfigError", tc.field, err)
		}
		if ce.Field != tc.field {
			t.Fatalf("ConfigError.Field = %q, want %q (%v)", ce.Field, tc.field, err)
		}
	}
}

// TestConstructorsRejectBadConfig: every constructor fails fast on a
// nonsensical config instead of misbehaving mid-flow.
func TestConstructorsRejectBadConfig(t *testing.T) {
	bad := DefaultConfig(1e6)
	bad.Window = -1

	n, fwd, rev := pair(1, cleanLink(10*netsim.MB), cleanLink(10*netsim.MB))
	if _, err := NewSender(n, fwd, bad); err == nil {
		t.Fatal("NewSender accepted Window = -1")
	}
	if _, err := NewReceiver(n, rev, bad); err == nil {
		t.Fatal("NewReceiver accepted Window = -1")
	}
	if _, err := NewAIMDSender(n, fwd, bad, 0); err == nil {
		t.Fatal("NewAIMDSender accepted Window = -1")
	}
	if tr := RunStabilized(n, fwd, rev, bad, time.Second); tr != nil {
		t.Fatal("RunStabilized produced a trace from an invalid config")
	}
}
