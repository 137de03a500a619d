// Package vmcs models the Virtual Machine Control Structure and the VMCS
// shadowing feature (§II-A), plus the paper's EPML extension to it.
//
// An ordinary VMCS is manipulated only by the hypervisor (vmx root mode).
// With VMCS shadowing enabled, the hypervisor links a shadow VMCS to the
// ordinary one and marks, in the vmread/vmwrite bitmaps, which fields the
// guest may access directly: vmread/vmwrite on those fields proceed without
// a vmexit. EPML adds two guest-state fields - Guest PML Address and Guest
// PML Index - and exposes them through the shadow VMCS so the guest's OoH
// module can arm and disarm logging with a single vmwrite (§IV-D).
package vmcs

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Field identifies a VMCS field. Only the fields the paper touches are
// modelled; the encodings are arbitrary but stable.
type Field uint32

// VMCS fields used by PML, EPML and shadowing.
const (
	// FieldPMLAddress is the 64-bit VM-execution control holding the HPA
	// of the hypervisor-level 4 KiB PML buffer.
	FieldPMLAddress Field = 0x200E
	// FieldPMLIndex is the 16-bit guest-state field holding the index of
	// the next free PML buffer slot; it starts at 511 and decrements.
	FieldPMLIndex Field = 0x0812
	// FieldExecControls holds the secondary execution controls (EnablePML,
	// EnableVMCSShadowing, EnableEPML bits below).
	FieldExecControls Field = 0x401E
	// FieldGuestPMLAddress is EPML's new field: the address of the
	// guest-level PML buffer. The guest writes a GPA; the extended vmwrite
	// micro-op translates it through the EPT and stores the HPA, so the
	// CPU can log without another translation (§IV-D).
	FieldGuestPMLAddress Field = 0x2832
	// FieldGuestPMLIndex is EPML's index into the guest-level buffer.
	FieldGuestPMLIndex Field = 0x0814
	// FieldGuestPMLEnable arms (1) or disarms (0) guest-level logging; the
	// OoH module flips it on schedule-in/out of a tracked process.
	FieldGuestPMLEnable Field = 0x0816
	// FieldVMCSLinkPointer holds the HPA of the linked shadow VMCS.
	FieldVMCSLinkPointer Field = 0x2800
)

// Bits within FieldExecControls.
const (
	CtrlEnablePML       uint64 = 1 << 17 // secondary exec control bit 17, as on Intel
	CtrlEnableShadowing uint64 = 1 << 14 // "VMCS shadowing" bit
	CtrlEnableEPML      uint64 = 1 << 27 // the paper's hardware extension
)

// Errors returned by VMCS accesses.
var (
	ErrUnknownField = errors.New("vmcs: unsupported field")
	// ErrExitRequired is returned when a guest-mode vmread/vmwrite is not
	// covered by the shadow VMCS bitmaps and must trap to the hypervisor.
	ErrExitRequired = errors.New("vmcs: access requires vmexit")
)

// Dense storage indices for the modelled fields. The VMCS sits on the PML
// logging hot path (two index reads and a write per logged page), so the
// fields live in a flat array indexed through fieldIndex rather than a map.
const (
	idxPMLAddress = iota
	idxPMLIndex
	idxExecControls
	idxGuestPMLAddress
	idxGuestPMLIndex
	idxGuestPMLEnable
	idxVMCSLinkPointer
	numFields
)

// fieldIndex maps a field encoding to its dense slot, or -1 when the field
// is not modelled.
func fieldIndex(f Field) int {
	switch f {
	case FieldPMLAddress:
		return idxPMLAddress
	case FieldPMLIndex:
		return idxPMLIndex
	case FieldExecControls:
		return idxExecControls
	case FieldGuestPMLAddress:
		return idxGuestPMLAddress
	case FieldGuestPMLIndex:
		return idxGuestPMLIndex
	case FieldGuestPMLEnable:
		return idxGuestPMLEnable
	case FieldVMCSLinkPointer:
		return idxVMCSLinkPointer
	}
	return -1
}

var fieldNames = [numFields]string{
	idxPMLAddress:      "PML_ADDRESS",
	idxPMLIndex:        "PML_INDEX",
	idxExecControls:    "EXEC_CONTROLS",
	idxGuestPMLAddress: "GUEST_PML_ADDRESS",
	idxGuestPMLIndex:   "GUEST_PML_INDEX",
	idxGuestPMLEnable:  "GUEST_PML_ENABLE",
	idxVMCSLinkPointer: "VMCS_LINK_POINTER",
}

// String returns the field's mnemonic.
func (f Field) String() string {
	if i := fieldIndex(f); i >= 0 {
		return fieldNames[i]
	}
	return fmt.Sprintf("FIELD_%#x", uint32(f))
}

// VMCS is a control structure for one vCPU. The zero value is unusable;
// create with New.
type VMCS struct {
	fields [numFields]uint64
	// shadow is the linked shadow VMCS (nil when shadowing is off).
	shadow *VMCS
	// readBitmap/writeBitmap list the fields the guest may access on the
	// shadow VMCS without a vmexit (true = no exit, matching the inverted
	// sense of the hardware bitmaps for simplicity).
	readBitmap  [numFields]bool
	writeBitmap [numFields]bool
}

// New returns an empty VMCS with the PML index at its architectural reset
// value (511).
func New() *VMCS {
	v := &VMCS{}
	v.fields[idxPMLIndex] = PMLResetIndex
	v.fields[idxGuestPMLIndex] = PMLResetIndex
	return v
}

// PMLBufferEntries is the number of 8-byte slots in a 4 KiB PML buffer.
const PMLBufferEntries = mem.PageSize / 8 // 512

// PMLResetIndex is the architectural reset value of the PML index.
const PMLResetIndex = PMLBufferEntries - 1 // 511

// Read returns a field's value. This is the vmx-root-mode path (hypervisor);
// the guest path is GuestRead.
func (v *VMCS) Read(f Field) (uint64, error) {
	i := fieldIndex(f)
	if i < 0 {
		return 0, fmt.Errorf("%w: %v", ErrUnknownField, f)
	}
	return v.fields[i], nil
}

// Write sets a field's value (vmx root mode).
func (v *VMCS) Write(f Field, val uint64) error {
	i := fieldIndex(f)
	if i < 0 {
		return fmt.Errorf("%w: %v", ErrUnknownField, f)
	}
	v.fields[i] = val
	return nil
}

// LinkShadow attaches a shadow VMCS and enables the shadowing control.
// expose lists the fields the guest may vmread AND vmwrite exit-free.
func (v *VMCS) LinkShadow(shadow *VMCS, expose ...Field) {
	v.shadow = shadow
	v.fields[idxExecControls] |= CtrlEnableShadowing
	for _, f := range expose {
		if i := fieldIndex(f); i >= 0 {
			v.readBitmap[i] = true
			v.writeBitmap[i] = true
		}
	}
}

// UnlinkShadow detaches the shadow VMCS and disables shadowing.
func (v *VMCS) UnlinkShadow() {
	v.shadow = nil
	v.fields[idxExecControls] &^= CtrlEnableShadowing
	v.readBitmap = [numFields]bool{}
	v.writeBitmap = [numFields]bool{}
}

// Shadow returns the linked shadow VMCS, or nil.
func (v *VMCS) Shadow() *VMCS { return v.shadow }

// ShadowingEnabled reports whether VMCS shadowing is active.
func (v *VMCS) ShadowingEnabled() bool {
	return v.fields[idxExecControls]&CtrlEnableShadowing != 0 && v.shadow != nil
}

// GuestRead performs a vmread issued in vmx non-root mode. If shadowing
// covers the field, the value comes from the shadow VMCS with no exit;
// otherwise ErrExitRequired is returned and the caller must emulate a
// vmexit.
func (v *VMCS) GuestRead(f Field) (uint64, error) {
	if i := fieldIndex(f); i >= 0 && v.ShadowingEnabled() && v.readBitmap[i] {
		return v.shadow.Read(f)
	}
	return 0, fmt.Errorf("%w: vmread %v", ErrExitRequired, f)
}

// GuestWrite performs a vmwrite issued in vmx non-root mode, writing the
// shadow VMCS when the bitmaps allow it.
func (v *VMCS) GuestWrite(f Field, val uint64) error {
	if i := fieldIndex(f); i >= 0 && v.ShadowingEnabled() && v.writeBitmap[i] {
		return v.shadow.Write(f, val)
	}
	return fmt.Errorf("%w: vmwrite %v", ErrExitRequired, f)
}

// PMLEnabled reports whether hypervisor-level PML logging is armed.
func (v *VMCS) PMLEnabled() bool {
	return v.fields[idxExecControls]&CtrlEnablePML != 0
}

// SetPMLEnabled arms or disarms hypervisor-level PML.
func (v *VMCS) SetPMLEnabled(on bool) {
	if on {
		v.fields[idxExecControls] |= CtrlEnablePML
	} else {
		v.fields[idxExecControls] &^= CtrlEnablePML
	}
}

// Snapshot is a captured VMCS image: all fields, the shadow link (deeply
// captured) and the access bitmaps.
type Snapshot struct {
	fields      [numFields]uint64
	shadow      *Snapshot
	readBitmap  [numFields]bool
	writeBitmap [numFields]bool
}

// Snapshot captures the VMCS and, recursively, its linked shadow.
func (v *VMCS) Snapshot() *Snapshot {
	s := &Snapshot{
		fields:      v.fields,
		readBitmap:  v.readBitmap,
		writeBitmap: v.writeBitmap,
	}
	if v.shadow != nil {
		s.shadow = v.shadow.Snapshot()
	}
	return s
}

// Restore rewinds the VMCS to a captured state, rebuilding the shadow
// chain.
func (v *VMCS) Restore(s *Snapshot) {
	v.fields = s.fields
	v.readBitmap = s.readBitmap
	v.writeBitmap = s.writeBitmap
	if s.shadow != nil {
		shadow := New()
		shadow.Restore(s.shadow)
		v.shadow = shadow
	} else {
		v.shadow = nil
	}
}

// EPMLEnabled reports whether the EPML hardware extension is armed.
func (v *VMCS) EPMLEnabled() bool {
	return v.fields[idxExecControls]&CtrlEnableEPML != 0
}

// SetEPMLEnabled arms or disarms the EPML extension.
func (v *VMCS) SetEPMLEnabled(on bool) {
	if on {
		v.fields[idxExecControls] |= CtrlEnableEPML
	} else {
		v.fields[idxExecControls] &^= CtrlEnableEPML
	}
}
