// Fixture: the same blocking `TracedRun::collect`, now really called —
// by its qualified path — while the `views` guard is live. The
// iterator `.collect()` in `epoch_vector` stays silent.

pub struct TracedRun;

impl TracedRun {
    pub fn collect(parts: Vec<Part>) -> Report {
        let mut index = Index::default();
        index.force_merge();
        Report::from(parts)
    }
}

pub fn epoch_vector(&self) -> Vec<u64> {
    let views = self.views.read();
    views.iter().map(|v| v.epoch()).collect()
}

pub fn report(&self) -> Report {
    let views = self.views.read();
    TracedRun::collect(views.parts())
}
