(** Persistent, content-addressed on-disk cache.

    One cache is one directory holding a versioned [INDEX] file plus one
    value file per key. The store is append-only: entries are written
    once under a content-derived key and never mutated — invalidation is
    wholesale, by bumping the version string, which makes a subsequent
    {!open_dir} discard every entry.

    Robustness contract: a cache is a pure accelerator and is never
    trusted. Entry files are self-describing {!Codec} envelopes (magic,
    version, key, payload length, digest — an explicit portable byte
    format, no [Marshal]); a corrupted, truncated, version-mismatched or
    otherwise unreadable entry reads as a miss, and a directory whose
    [INDEX] does not match the expected version is treated as empty (and
    wiped, so stale entries cannot survive a version bump). Writes go
    through a temp file and [rename], so readers — including concurrent
    processes sharing the directory — never observe a partial entry;
    temp files orphaned by a crashed writer are swept at {!open_dir}.

    Because the envelope is Marshal-free, the store itself is readable
    across compiler versions. A caller whose {e payloads} are Marshaled
    (e.g. the routing engine) must fold the compiler version into its
    own version string.

    Usage is observable through the [diskcache.hit], [diskcache.miss]
    and [diskcache.write] telemetry counters. *)

type t

val write_atomic : string -> string -> unit
(** [write_atomic path content] writes [content] to a temp file beside
    [path], then renames it over [path]: a reader sees the old file or
    the whole new one, never a torn write. Raises [Sys_error]. *)

val open_dir : ?version:string -> string -> t
(** [open_dir ~version dir] opens (creating it, parents included, if
    needed) the cache directory [dir] for entries of format [version]
    (default ["1"]). An existing directory whose [INDEX] disagrees —
    including one written by the pre-codec Marshal format — is emptied.
    Stale [.tmp-*] files left by crashed writers are removed. Raises
    [Sys_error] when the directory cannot be created or written. *)

val dir : t -> string
val version : t -> string
(** The version string entries are stamped with. *)

val find : t -> string -> string option
(** [find t key] is the payload stored under [key], or [None] on any
    kind of miss (absent, corrupted, truncated, wrong version, key
    collision). Ticks [diskcache.hit] / [diskcache.miss]. *)

val add : t -> key:string -> string -> unit
(** [add t ~key payload] stores [payload] under [key], atomically
    (write to a temp file, then rename). Last writer wins on a race,
    which is harmless because equal keys hold equal payloads by
    construction. Ticks [diskcache.write]. I/O errors are swallowed: a
    cache that cannot be written degrades to a smaller cache, it never
    fails the computation. *)

val mem : t -> string -> bool
(** [mem t key] is [true] iff {!find} would hit: the entry exists {e and}
    its whole envelope validates (digest, version, key). Shares the
    decode path with {!find} but does not tick counters. A bare
    file-existence check would report hits for corrupt, truncated or
    version-mismatched entries that [find] then rejects. *)

val entries : t -> int
(** Number of entry files currently present. *)
