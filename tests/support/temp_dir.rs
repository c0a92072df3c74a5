//! A scratch directory per test, shared by the CLI test files.

/// A fresh directory of its own for one test, removed on drop, so tests
/// running in parallel never share one and no run leaves one behind.
pub struct TempDir(std::path::PathBuf);

impl TempDir {
    /// Creates `<system temp>/fsa-<tag>-<pid>`, emptied first.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("fsa-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
