// Fixture: `.collect()` under a guard is the iterator's collect, even
// though the workspace also defines a blocking associated fn named
// `collect`. The call graph never resolves std-named method calls by
// name, so the lock rule must not either.

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
