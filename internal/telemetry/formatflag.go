package telemetry

// FormatFlag is a flag.Value for -format flags, the one parser owagen,
// autosens and sensd share. Register it with flag.Var:
//
//	format := telemetry.NewFormatFlag(telemetry.JSONL)
//	flag.Var(format, "format", "telemetry format: "+format.Choices())
type FormatFlag struct {
	f Format
}

// NewFormatFlag returns a FormatFlag defaulting to def.
func NewFormatFlag(def Format) *FormatFlag {
	return &FormatFlag{f: def}
}

// Format returns the selected format.
func (ff *FormatFlag) Format() Format { return ff.f }

// String implements flag.Value.
func (ff *FormatFlag) String() string {
	if ff == nil {
		return ""
	}
	return ff.f.String()
}

// Set implements flag.Value, accepting the ParseFormat names.
func (ff *FormatFlag) Set(s string) error {
	f, err := ParseFormat(s)
	if err != nil {
		return err
	}
	ff.f = f
	return nil
}

// Choices renders the accepted format names for flag usage strings.
func (ff *FormatFlag) Choices() string {
	out := ""
	for i, f := range []Format{JSONL, CSV, TBIN} {
		if i > 0 {
			out += ", "
		}
		out += f.String()
	}
	return out
}
