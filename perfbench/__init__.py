"""Op-stream benchmark of hdivkit; see run.py and README.md."""
