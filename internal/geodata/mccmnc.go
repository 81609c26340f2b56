package geodata

// MCCMNC maps a (Mobile Country Code, Mobile Network Code) pair to the
// operating provider. US networks use MCC 310-316; the large national
// carriers hold many MNCs accumulated through mergers and spectrum deals —
// exactly the resolution problem §3.5 of the paper describes. The table
// below covers the prominent 2019-era allocations plus the long tail of
// regional carriers.
type MCCMNC struct {
	MCC      int
	MNC      int
	Provider string
}

// Provider display names for the national carriers.
const (
	ProviderATT      = "AT&T"
	ProviderTMobile  = "T-Mobile"
	ProviderSprint   = "Sprint"
	ProviderVerizon  = "Verizon"
	ProviderUnknown  = "Unknown"
	ProviderOthersAg = "Others" // aggregate label used in Table 2
)

// MCCMNCTable is the embedded identifier-to-provider mapping.
var MCCMNCTable = []MCCMNC{
	// AT&T Mobility and acquisitions.
	{310, 30, ProviderATT}, {310, 70, ProviderATT}, {310, 150, ProviderATT},
	{310, 170, ProviderATT}, {310, 280, ProviderATT}, {310, 380, ProviderATT},
	{310, 410, ProviderATT}, {310, 560, ProviderATT}, {310, 680, ProviderATT},
	{310, 980, ProviderATT}, {311, 70, ProviderATT}, {311, 90, ProviderATT},
	{311, 180, ProviderATT}, {311, 190, ProviderATT}, {313, 100, ProviderATT},
	// T-Mobile USA and acquisitions (MetroPCS, SunCom...).
	{310, 160, ProviderTMobile}, {310, 200, ProviderTMobile}, {310, 210, ProviderTMobile},
	{310, 220, ProviderTMobile}, {310, 230, ProviderTMobile}, {310, 240, ProviderTMobile},
	{310, 250, ProviderTMobile}, {310, 260, ProviderTMobile}, {310, 270, ProviderTMobile},
	{310, 310, ProviderTMobile}, {310, 490, ProviderTMobile}, {310, 660, ProviderTMobile},
	{310, 800, ProviderTMobile}, {311, 660, ProviderTMobile},
	// Sprint (Nextel, Clearwire...).
	{310, 120, ProviderSprint}, {311, 490, ProviderSprint}, {311, 870, ProviderSprint},
	{311, 880, ProviderSprint}, {311, 882, ProviderSprint}, {312, 190, ProviderSprint},
	{312, 530, ProviderSprint},
	// Verizon Wireless (Alltel, many LTE-in-rural-America partners).
	{310, 4, ProviderVerizon}, {310, 10, ProviderVerizon}, {310, 12, ProviderVerizon},
	{310, 13, ProviderVerizon}, {310, 590, ProviderVerizon}, {310, 890, ProviderVerizon},
	{310, 910, ProviderVerizon}, {311, 110, ProviderVerizon}, {311, 270, ProviderVerizon},
	{311, 280, ProviderVerizon}, {311, 390, ProviderVerizon}, {311, 480, ProviderVerizon},
	// Regional and rural carriers — the "46 smaller cellular service
	// providers" the paper footnotes.
	{311, 580, "U.S. Cellular"},
	{311, 230, "C Spire"},
	{310, 100, "Plateau Wireless"},
	{310, 110, "PTI Pacifica"},
	{310, 320, "Cellular One of East Texas"},
	{310, 330, "Wireless Partners"},
	{310, 350, "Carolina West Wireless"},
	{310, 390, "Cellular One of East CV"},
	{310, 400, "iConnect"},
	{310, 430, "GCI Wireless"},
	{310, 450, "Viaero Wireless"},
	{310, 460, "NewCore Wireless"},
	{310, 540, "Oklahoma Western Telephone"},
	{310, 570, "Broadpoint"},
	{310, 600, "NewCell Cellcom"},
	{310, 620, "Nsighttel Wireless"},
	{310, 630, "Choice Wireless"},
	{310, 650, "Jasper Technologies"},
	{310, 690, "Limitless Mobile"},
	{310, 710, "Arctic Slope Telephone"},
	{310, 740, "Tracy Corporation"},
	{310, 760, "Lynch 3G Communications"},
	{310, 770, "Iowa Wireless"},
	{310, 790, "PinPoint Communications"},
	{310, 840, "Telecom North America"},
	{310, 850, "Aeris Communications"},
	{310, 860, "Five Star Wireless"},
	{310, 880, "Advantage Cellular"},
	{310, 900, "Mid-Rivers Communications"},
	{310, 920, "James Valley Wireless"},
	{310, 940, "Mingo Wireless"},
	{310, 950, "XIT Wireless"},
	{310, 970, "Globalstar USA"},
	{311, 10, "Chariton Valley"},
	{311, 20, "Missouri RSA"},
	{311, 30, "Indigo Wireless"},
	{311, 40, "Commnet Wireless"},
	{311, 50, "Thumb Cellular"},
	{311, 60, "Space Data"},
	{311, 80, "Pine Telephone"},
	{311, 100, "Nex-Tech Wireless"},
	{311, 120, "Choice Phone"},
	{311, 130, "Lightyear Alliance"},
	{311, 140, "Sprocket Wireless"},
	{311, 150, "Wilkes Cellular"},
	{311, 160, "Endless Mountains Wireless"},
	{311, 170, "PetroCom"},
	{311, 210, "Farmers Cellular"},
	{311, 240, "Cordova Wireless"},
	{311, 250, "Wave Runner"},
	{311, 310, "Leaco Rural Telephone"},
	{311, 320, "Smith Bagley Cellular One"},
	{311, 330, "Bug Tussel Wireless"},
	{311, 340, "Illinois Valley Cellular"},
	{311, 350, "Sagebrush Cellular"},
	{311, 410, "Iowa RSA"},
	{311, 430, "RSA 1 Limited Partnership"},
	{311, 440, "Bluegrass Cellular"},
	{311, 530, "NewCore Wireless LLC"},
	{311, 650, "United Wireless"},
	{311, 710, "Northeast Wireless"},
	{311, 780, "ASTCA Wireless"},
	{316, 10, "Southern Communications"},
}

// MajorProviders are the four national carriers of the study period, in
// the order Table 2 of the paper lists them.
var MajorProviders = []string{ProviderATT, ProviderTMobile, ProviderSprint, ProviderVerizon}

// IsMajorProvider reports whether name is one of the four national
// carriers.
func IsMajorProvider(name string) bool {
	for _, p := range MajorProviders {
		if p == name {
			return true
		}
	}
	return false
}

// RegionalProviders returns the distinct non-major, non-unknown provider
// names in the table (the paper's "46 smaller cellular service
// providers").
func RegionalProviders() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range MCCMNCTable {
		if IsMajorProvider(e.Provider) || e.Provider == ProviderUnknown {
			continue
		}
		if !seen[e.Provider] {
			seen[e.Provider] = true
			out = append(out, e.Provider)
		}
	}
	return out
}

// CodesForProvider returns every MCC/MNC pair the table assigns to the
// provider.
func CodesForProvider(name string) []MCCMNC {
	var out []MCCMNC
	for _, e := range MCCMNCTable {
		if e.Provider == name {
			out = append(out, e)
		}
	}
	return out
}

// NationalShare is the 2019-era share of transceivers operated by each
// national carrier (plus the regional remainder), used by the transceiver
// generator. Derived from the totals in Table 2 of the paper: percent
// figures there imply fleet sizes of ~1.87M (AT&T), ~1.63M (T-Mobile),
// ~0.83M (Sprint), ~0.77M (Verizon) and ~0.39M (others) out of 5.36M.
var NationalShare = map[string]float64{
	ProviderATT:      0.349,
	ProviderTMobile:  0.304,
	ProviderSprint:   0.155,
	ProviderVerizon:  0.144,
	ProviderOthersAg: 0.048,
}
