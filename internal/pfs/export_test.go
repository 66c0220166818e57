package pfs

import "cofs/internal/vfs"

// InodeState is one inode as the format tests compare it: the
// attributes a layout fixes (number, type, mode, owner, link count)
// and, for a directory, its entries.
type InodeState struct {
	Ino            vfs.Ino
	Type           vfs.FileType
	Mode, UID, GID uint32
	Nlink          int
	Entries        map[string]vfs.Ino
}

// Namespace returns every inode's state, keyed by inode number.
func (s *Server) Namespace() map[vfs.Ino]InodeState {
	out := make(map[vfs.Ino]InodeState, len(s.inodes))
	for ino, in := range s.inodes {
		a := in.attr
		out[ino] = InodeState{a.Ino, a.Type, a.Mode, a.UID, a.GID, a.Nlink, in.entries}
	}
	return out
}

// DirCacheKeys returns the directory blocks resident in host's buffer
// cache, most recently used first, each as (directory, block index).
func (s *Server) DirCacheKeys(host int) [][2]uint64 {
	var out [][2]uint64
	for _, k := range s.dirCaches[host].Keys() {
		out = append(out, [2]uint64{uint64(k.dir), uint64(k.idx)})
	}
	return out
}

// InodeCacheLen returns how many inode blocks host's buffer cache holds.
func (s *Server) InodeCacheLen(host int) int { return s.inodeCaches[host].Len() }
