(** The per-report feature vector behind the corpus classifier
    (PAPERS.md: Modena's vulnerability-classification metric).

    Each report maps to a fixed-length numeric vector built from two
    sources: the pFSM model of its flaw mechanism — the paper's own
    structural quantities via {!Pfsm.Metrics.of_model} (operation
    cascade length, distinct objects, elementary activities,
    propagation gates, the three taxonomy kinds, missing checks) —
    and the report's Bugtraq metadata (exploitable range, title
    shape, year).  The flaw-model features are computed once per flaw,
    on the first extraction; extraction is then allocation-light and
    safe to run on pool domains. *)

val dim : int
(** Length of every feature vector. *)

val names : string array
(** Feature names, index-aligned with the vectors ([dim] entries). *)

val model_of_flaw : Vulndb.Report.flaw -> Pfsm.Model.t option
(** The app or pattern model standing in for a flaw mechanism:
    stack overflow → the Section-3.2 buffer-overflow pattern, heap
    overflow → Null HTTPD, integer overflow → the sendmail-family
    pattern, format string → the *printf pattern, file race → xterm,
    path traversal → IIS.  [None] for [Other_flaw] (no modelled
    structure; its model features are zero). *)

val of_report : Vulndb.Report.t -> float array
(** The feature vector; a pure function of the report. *)

val fill : float array -> Vulndb.Report.t -> unit
(** [fill v r] overwrites every slot of [v] (length {!dim}) with the
    feature vector of [r], allocating nothing: a sweep reuses one
    vector for a whole chunk. *)

val version : string
(** Cache-key component: bump when the vector layout changes. *)
