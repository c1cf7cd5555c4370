package main

// Simulated outputs pinned for the default seed. They are pure functions
// of the seed and the model: a speed-only change must leave every one of
// them byte-identical. A model change that moves them re-pins them here
// and says so.
const (
	pinTPCCTotal  = "25024"
	pinTPCCTpmC   = "1654.785"
	pinTPCCEvents = "1089091/32845a91fa307ab1"

	pinServeDigest = "5c9b665d044a663bd157179c44666a0c7341924b25085dabf9b514601c081069"
	pinServeRender = "6997c7af7fbc1090600f14a93625dc80eefe909f2c28603b366bbeb6bd032ce1" // SHA-256 of ScenarioResult.Render()
	pinServeShed   = "25576"
)

// pinCrashDigests are the 11 crashpoint.Matrix schedule digests, in
// matrix order.
var pinCrashDigests = []string{
	"4d9704128dc494bdf31d4d2559af3365a3f39a9449ebba2737542200fc224f2b", // DuraSSD barrier=off dwb=off
	"5979ed47dedf575157abe1a132f835cdcbab6f5c3f74d1d443192885da76a0b5", // SSD-A barrier=off dwb=off
	"0bf7ac4c266021742e09aaabcee7c1923f0ecc40975b4508824a482648c0d120", // SSD-A barrier=on dwb=on
	"3f0d465bb6cf6a682e152c2082d0118da7bab931d914b0c7b94f45d9db3ac58b", // DuraSSD wear barrier=off dwb=off
	"1531bf6d82fab8d43d6a6558ba2951008d0aae4519e72b3dd32bf220647a830a", // DuraSSD pgsql barrier=off fpw=off
	"a8648ccd73bc1d890d301d8292d7ff5aff8b26e18a1bdbe94d095e3acef00384", // SSD-A pgsql barrier=off fpw=off
	"365e6bf8dfae054d82d32894a1a28ac9ad346238f7b6d805d4e24d604ece5f93", // SSD-A pgsql barrier=on fpw=on
	"5a59c48af4bdddf26dbc2cdd16b6696dece134eb606e21ad2b47aa7fccc0d487", // DuraSSD pgsql wear barrier=off fpw=off
	"a6b2cbc4bc207a39cc91d54f9cdcf52fa4038a6f85350b0ff9565e2b0d0af30a", // serve midburst shards=4 volatile=2 barrier=off
	"77610e4dae12b701aed6f5050a8ab059f32d34282463fa170dcf0120877598d2", // serve replicaloss groups=2 r=3 w=2 dev=durassd
	"3bea8989e872ce7cfa48dbde3f6b8a6c06bc6c4145e5e2bfc7825e6b46a87dc9", // serve replicaloss groups=2 r=1 w=1 dev=ssda
}

// pinned records a failed check when got differs from the pinned value.
func pinned(o *outcome, what, got, want string) {
	if got != want {
		o.failf("%s: got %s, pinned %s", what, got, want)
	}
}
