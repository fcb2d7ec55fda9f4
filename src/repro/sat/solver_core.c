/*
 * Native search core of repro.sat.solver.Solver: CDCL over clauses plus
 * native XOR (parity) constraints.
 *
 * The Python class in solver.py is a thin ctypes wrapper around the
 * functions exported at the bottom of this file (the rs_* symbols); the
 * pure-Python reference implementation of the same algorithm is
 * repro.sat.pysolver.PySolver.  The file is compiled on first import by
 * repro.sat.native with the system C compiler, so it is plain C99 with
 * no dependency beyond libc.
 *
 * Literal encoding (as in repro.sat.types): variable v has positive
 * literal 2v and negative literal 2v+1; lit ^ 1 negates, lit >> 1 is the
 * variable.  Values are 1 (true), 0 (false), -1 (unassigned), so a
 * literal's truth under an assigned variable is value[v] ^ (lit & 1).
 *
 * Contents: a clause table with two-watched-literal propagation (with a
 * blocker literal per watch), XOR records with two watched variables and
 * lazily materialised reasons, first-UIP analysis with basic
 * minimisation, a VSIDS heap, phase saving, Luby restarts, learnt-clause
 * reduction, the single assumption level, incremental model blocking
 * (block_model) and assumption-guarded XOR groups (add/release).
 */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define VAL_TRUE 1
#define VAL_FALSE 0
#define VAL_UNDEF (-1)

/* A reason (and a conflict) is NO_REASON, a clause ref >= 0, or an XOR
 * record encoded as XOR_REF(xid) <= -2. */
#define NO_REASON (-1)
#define XOR_REF(xid) (-2 - (xid))

#define RESTART_BASE 100
#define RESCALE_LIMIT 1e100
#define RESCALE_FACTOR 1e-100
#define RANDOM_DECISION_FREQ 0.02

/* Slots of the int64 array the caller shares with the core: the
 * SolverStats counters in field order, then the variable count and the
 * address of the value array (both kept current by grow/ensure_vars), so
 * the wrapper reads them without a call. */
enum {
    ST_DECISIONS, ST_PROPAGATIONS, ST_XOR_PROPAGATIONS, ST_CONFLICTS,
    ST_RESTARTS, ST_LEARNED_CLAUSES, ST_LEARNED_LITERALS, ST_DB_REDUCTIONS,
    ST_REMOVED_CLAUSES, SH_NVARS, SH_VALUES, SH_COUNT
};

/* Slots of the double array of per-solve limits the caller shares; a
 * negative value means no limit. */
enum { LIM_CONFLICTS, LIM_PROPAGATIONS, LIM_SECONDS };

enum { RES_SAT = 0, RES_UNSAT = 1, RES_UNKNOWN = 2, RES_NONE = 3 };

static void *xrealloc(void *p, size_t n)
{
    void *q = realloc(p, n ? n : 1);
    if (!q)
        abort();
    return q;
}

/* ------------------------------------------------------------------ */
/* Growable vectors                                                    */
/* ------------------------------------------------------------------ */
typedef struct { int *data; int size, cap; } IVec;

static void ivec_push(IVec *v, int x)
{
    if (v->size == v->cap) {
        v->cap = v->cap ? 2 * v->cap : 4;
        v->data = xrealloc(v->data, (size_t)v->cap * sizeof(int));
    }
    v->data[v->size++] = x;
}

static void ivec_free(IVec *v)
{
    free(v->data);
    v->data = NULL;
    v->size = v->cap = 0;
}

typedef struct { int cref; int blocker; } Watch;
typedef struct { Watch *data; int size, cap; } WVec;

static void wvec_push(WVec *v, Watch w)
{
    if (v->size == v->cap) {
        v->cap = v->cap ? 2 * v->cap : 4;
        v->data = xrealloc(v->data, (size_t)v->cap * sizeof(Watch));
    }
    v->data[v->size++] = w;
}

/* ------------------------------------------------------------------ */
/* Problem records                                                     */
/* ------------------------------------------------------------------ */
typedef struct {
    int size;
    int learnt;
    int deleted;
    double act;
    int lits[];
} Clause;

typedef struct {
    int *vars;   /* sorted ascending; NULL once the record is dead */
    int n;
    int rhs;
    int wa, wb;  /* watched variables */
} Xor;

typedef struct {
    IVec aux;      /* guard first, then one activator per row */
    IVec xids;
    IVec clauses;  /* blocking clauses carrying the guard */
} Group;

typedef struct {
    int nvars, cap_vars;
    int ok;
    int phase_default;
    int8_t *value;     /* per variable */
    int *level;
    int *reason;
    int8_t *phase;
    double *activity;
    int8_t *seen;
    int *heap_pos;     /* position in heap, -1 if absent */
    int *heap;
    int heap_size;
    WVec *watches;     /* per literal */
    IVec *xwatches;    /* per variable */
    int8_t *lit_mark;  /* per literal, scratch for add_clause */

    Clause **ctab;
    int ctab_size, ctab_cap;
    IVec cfree;
    IVec clauses, learnts;
    int n_deleted;     /* deleted clauses waiting for purge() */

    Xor *xors;
    int nxors, cap_xors;
    IVec pending;

    Group *groups;
    int ngroups, cap_groups;

    IVec trail, trail_lim;
    int qhead;

    double var_inc, var_decay, cla_inc, cla_decay;
    int64_t max_learnts;
    int resume;
    IVec assumps;
    uint64_t rng;
    int64_t *stats;    /* the shared array, SH_COUNT slots */
    const double *limits;

    IVec learnt, to_clear, tmp;
} Solver;

/* ------------------------------------------------------------------ */
/* Small helpers                                                       */
/* ------------------------------------------------------------------ */
static inline int lit_value(const Solver *s, int lit)
{
    int8_t v = s->value[lit >> 1];
    return v == VAL_UNDEF ? VAL_UNDEF : (v ^ (lit & 1));
}

static double now_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static uint64_t rng_next(Solver *s)
{
    /* xorshift64* */
    uint64_t x = s->rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    s->rng = x;
    return x * 0x2545F4914F6CDD1DULL;
}

static double rng_double(Solver *s)
{
    return (double)(rng_next(s) >> 11) * (1.0 / 9007199254740992.0);
}

static int64_t luby(int64_t x)
{
    int64_t size = 1, seq = 0;
    while (size < x + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        seq--;
        x = x % size;
    }
    return (int64_t)1 << seq;
}

/* ------------------------------------------------------------------ */
/* VSIDS heap (max-heap on activity, MiniSat style)                    */
/* ------------------------------------------------------------------ */
static void heap_up(Solver *s, int i)
{
    int v = s->heap[i];
    double a = s->activity[v];
    while (i > 0) {
        int parent = (i - 1) >> 1;
        int pv = s->heap[parent];
        if (!(a > s->activity[pv]))
            break;
        s->heap[i] = pv;
        s->heap_pos[pv] = i;
        i = parent;
    }
    s->heap[i] = v;
    s->heap_pos[v] = i;
}

static void heap_down(Solver *s, int i)
{
    int v = s->heap[i];
    double a = s->activity[v];
    for (;;) {
        int child = 2 * i + 1;
        if (child >= s->heap_size)
            break;
        if (child + 1 < s->heap_size
            && s->activity[s->heap[child + 1]] > s->activity[s->heap[child]])
            child++;
        if (!(s->activity[s->heap[child]] > a))
            break;
        s->heap[i] = s->heap[child];
        s->heap_pos[s->heap[i]] = i;
        i = child;
    }
    s->heap[i] = v;
    s->heap_pos[v] = i;
}

static void heap_insert(Solver *s, int v)
{
    if (s->heap_pos[v] >= 0)
        return;
    s->heap[s->heap_size] = v;
    s->heap_pos[v] = s->heap_size;
    s->heap_size++;
    heap_up(s, s->heap_size - 1);
}

static int heap_pop(Solver *s)
{
    int top = s->heap[0];
    s->heap_pos[top] = -1;
    s->heap_size--;
    if (s->heap_size > 0) {
        s->heap[0] = s->heap[s->heap_size];
        s->heap_pos[s->heap[0]] = 0;
        heap_down(s, 0);
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* Variables                                                           */
/* ------------------------------------------------------------------ */
static void grow_vars(Solver *s, int need)
{
    int cap = s->cap_vars ? s->cap_vars : 16;
    int old = s->cap_vars;
    while (cap < need)
        cap *= 2;
    size_t n = (size_t)cap + 1;
    s->value = xrealloc(s->value, n);
    s->level = xrealloc(s->level, n * sizeof(int));
    s->reason = xrealloc(s->reason, n * sizeof(int));
    s->phase = xrealloc(s->phase, n);
    s->activity = xrealloc(s->activity, n * sizeof(double));
    s->seen = xrealloc(s->seen, n);
    s->heap_pos = xrealloc(s->heap_pos, n * sizeof(int));
    s->heap = xrealloc(s->heap, n * sizeof(int));
    s->xwatches = xrealloc(s->xwatches, n * sizeof(IVec));
    s->watches = xrealloc(s->watches, 2 * n * sizeof(WVec));
    s->lit_mark = xrealloc(s->lit_mark, 2 * n);
    size_t from = old ? (size_t)old + 1 : 0;
    memset(s->xwatches + from, 0, (n - from) * sizeof(IVec));
    memset(s->watches + 2 * from, 0, 2 * (n - from) * sizeof(WVec));
    memset(s->lit_mark + 2 * from, 0, 2 * (n - from));
    if (!old) {
        /* Slot 0 is padding. */
        s->value[0] = VAL_UNDEF;
        s->level[0] = 0;
        s->reason[0] = NO_REASON;
        s->phase[0] = 0;
        s->activity[0] = 0.0;
        s->seen[0] = 0;
        s->heap_pos[0] = -1;
    }
    s->cap_vars = cap;
    s->stats[SH_VALUES] = (int64_t)(intptr_t)s->value;
}

static void ensure_vars(Solver *s, int n)
{
    if (n > s->cap_vars)
        grow_vars(s, n);
    while (s->nvars < n) {
        int v = ++s->nvars;
        s->value[v] = VAL_UNDEF;
        s->level[v] = 0;
        s->reason[v] = NO_REASON;
        s->phase[v] = (int8_t)s->phase_default;
        s->activity[v] = 0.0;
        s->seen[v] = 0;
        s->heap_pos[v] = -1;
        heap_insert(s, v);
    }
    s->stats[SH_NVARS] = s->nvars;
}

/* ------------------------------------------------------------------ */
/* Trail                                                               */
/* ------------------------------------------------------------------ */
static inline void enqueue(Solver *s, int lit, int reason)
{
    int v = lit >> 1;
    s->value[v] = (int8_t)((lit & 1) ^ 1);
    s->level[v] = s->trail_lim.size;
    s->reason[v] = reason;
    ivec_push(&s->trail, lit);
}

static void cancel_until(Solver *s, int level)
{
    if (s->trail_lim.size <= level)
        return;
    int lim = s->trail_lim.data[level];
    for (int k = s->trail.size - 1; k >= lim; k--) {
        int lit = s->trail.data[k];
        int v = lit >> 1;
        s->phase[v] = (int8_t)!(lit & 1);
        s->value[v] = VAL_UNDEF;
        s->reason[v] = NO_REASON;
        heap_insert(s, v);
    }
    s->trail.size = lim;
    s->trail_lim.size = level;
    s->qhead = lim;
}

/* ------------------------------------------------------------------ */
/* Clauses                                                             */
/* ------------------------------------------------------------------ */
static int new_clause(Solver *s, const int *lits, int n, int learnt)
{
    Clause *c = xrealloc(NULL, sizeof(Clause) + (size_t)n * sizeof(int));
    c->size = n;
    c->learnt = learnt;
    c->deleted = 0;
    c->act = 0.0;
    memcpy(c->lits, lits, (size_t)n * sizeof(int));
    int cref;
    if (s->cfree.size) {
        cref = s->cfree.data[--s->cfree.size];
    } else {
        if (s->ctab_size == s->ctab_cap) {
            s->ctab_cap = s->ctab_cap ? 2 * s->ctab_cap : 64;
            s->ctab = xrealloc(s->ctab, (size_t)s->ctab_cap * sizeof(Clause *));
        }
        cref = s->ctab_size++;
    }
    s->ctab[cref] = c;
    Watch w0 = {cref, c->lits[1]}, w1 = {cref, c->lits[0]};
    wvec_push(&s->watches[c->lits[0]], w0);
    wvec_push(&s->watches[c->lits[1]], w1);
    return cref;
}

static void mark_deleted(Solver *s, int cref)
{
    s->ctab[cref]->deleted = 1;
    s->n_deleted++;
}

/* Drop every deleted clause from the watch lists, then free it. */
static void purge(Solver *s)
{
    if (!s->n_deleted)
        return;
    int nlits = 2 * (s->nvars + 1);
    for (int l = 2; l < nlits; l++) {
        WVec *ws = &s->watches[l];
        int j = 0;
        for (int i = 0; i < ws->size; i++)
            if (!s->ctab[ws->data[i].cref]->deleted)
                ws->data[j++] = ws->data[i];
        ws->size = j;
    }
    for (int cref = 0; cref < s->ctab_size; cref++) {
        Clause *c = s->ctab[cref];
        if (c && c->deleted) {
            free(c);
            s->ctab[cref] = NULL;
            ivec_push(&s->cfree, cref);
        }
    }
    s->n_deleted = 0;
}

static void filter_deleted(Solver *s, IVec *crefs)
{
    int j = 0;
    for (int i = 0; i < crefs->size; i++)
        if (!s->ctab[crefs->data[i]]->deleted)
            crefs->data[j++] = crefs->data[i];
    crefs->size = j;
}

static int is_locked(const Solver *s, int cref)
{
    int v = s->ctab[cref]->lits[0] >> 1;
    return s->value[v] != VAL_UNDEF && s->reason[v] == cref;
}

/* ------------------------------------------------------------------ */
/* XOR records                                                         */
/* ------------------------------------------------------------------ */
static int new_xor(Solver *s, const int *vars, int n, int extra, int rhs)
{
    if (s->nxors == s->cap_xors) {
        s->cap_xors = s->cap_xors ? 2 * s->cap_xors : 16;
        s->xors = xrealloc(s->xors, (size_t)s->cap_xors * sizeof(Xor));
    }
    Xor *x = &s->xors[s->nxors];
    int total = n + (extra ? 1 : 0);
    x->vars = xrealloc(NULL, (size_t)(total ? total : 1) * sizeof(int));
    if (n)
        memcpy(x->vars, vars, (size_t)n * sizeof(int));
    if (extra)
        x->vars[n] = extra;
    x->n = total;
    x->rhs = rhs ? 1 : 0;
    x->wa = total ? x->vars[0] : 0;
    x->wb = total ? x->vars[total > 1 ? 1 : 0] : 0;
    ivec_push(&s->pending, s->nxors);
    return s->nxors++;
}

/* Initialise the watches of the XORs added since the last solve; runs at
 * decision level 0.  Returns 0 when a record is violated at the root. */
static int attach_pending(Solver *s)
{
    for (int k = 0; k < s->pending.size; k++) {
        int xid = s->pending.data[k];
        Xor *x = &s->xors[xid];
        if (!x->vars)
            continue;
        int nfree = 0, wa = 0, wb = 0, parity = 0;
        for (int i = 0; i < x->n; i++) {
            int u = x->vars[i];
            int8_t a = s->value[u];
            if (a == VAL_UNDEF) {
                if (!nfree)
                    wa = u;
                else if (nfree == 1)
                    wb = u;
                nfree++;
            } else {
                parity ^= a;
            }
        }
        if (nfree >= 2) {
            x->wa = wa;
            x->wb = wb;
            ivec_push(&s->xwatches[wa], xid);
            ivec_push(&s->xwatches[wb], xid);
            continue;
        }
        if (!nfree) {
            if (parity != x->rhs) {
                s->ok = 0;
                s->pending.size = 0;
                return 0;
            }
            continue;
        }
        int value = x->rhs ^ parity;
        enqueue(s, (wa << 1) | !value, XOR_REF(xid));
        x->wa = x->wb = wa;
        ivec_push(&s->xwatches[wa], xid);
    }
    s->pending.size = 0;
    return 1;
}

static void ivec_remove(IVec *v, int x)
{
    for (int i = 0; i < v->size; i++) {
        if (v->data[i] == x) {
            v->data[i] = v->data[--v->size];
            return;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Propagation                                                         */
/* ------------------------------------------------------------------ */
/* Propagate to fixpoint; return the conflict (clause ref or XOR_REF) or
 * NO_REASON. */
static int propagate(Solver *s)
{
    int confl = NO_REASON;
    int64_t props = 0, xprops = 0;
    int8_t *value = s->value;
    while (s->qhead < s->trail.size) {
        int p = s->trail.data[s->qhead++];
        props++;

        /* Clauses watching the literal that just became false. */
        int false_lit = p ^ 1;
        WVec *ws = &s->watches[false_lit];
        Watch *i = ws->data, *j = ws->data, *end = ws->data + ws->size;
        while (i != end) {
            int blocker = i->blocker;
            if (value[blocker >> 1] != VAL_UNDEF
                && (value[blocker >> 1] ^ (blocker & 1)) == VAL_TRUE) {
                *j++ = *i++;
                continue;
            }
            int cref = i->cref;
            Clause *c = s->ctab[cref];
            int *lits = c->lits;
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            i++;
            int first = lits[0];
            Watch w = {cref, first};
            int fval = lit_value(s, first);
            if (first != blocker && fval == VAL_TRUE) {
                *j++ = w;
                continue;
            }
            int found = 0;
            for (int k = 2; k < c->size; k++) {
                if (lit_value(s, lits[k]) != VAL_FALSE) {
                    lits[1] = lits[k];
                    lits[k] = false_lit;
                    wvec_push(&s->watches[lits[1]], w);
                    found = 1;
                    break;
                }
            }
            if (found)
                continue;
            *j++ = w;
            if (fval == VAL_FALSE) {
                confl = cref;
                while (i != end)
                    *j++ = *i++;
            } else {
                enqueue(s, first, cref);
            }
        }
        ws->size = (int)(j - ws->data);
        if (confl != NO_REASON)
            break;

        /* XOR records watching var(p). */
        int var = p >> 1;
        IVec *xws = &s->xwatches[var];
        if (!xws->size)
            continue;
        int *xi = xws->data, *xj = xws->data, *xend = xws->data + xws->size;
        while (xi != xend) {
            int xid = *xi++;
            Xor *x = &s->xors[xid];
            if (x->wb == var) {
                x->wb = x->wa;
                x->wa = var;
            }
            int other = x->wb;
            int nv = 0, parity = 0;
            for (int k = 0; k < x->n; k++) {
                int u = x->vars[k];
                int8_t a = value[u];
                if (a == VAL_UNDEF) {
                    if (u != other) {
                        nv = u;
                        break;
                    }
                } else {
                    parity ^= a;
                }
            }
            if (nv) {
                x->wa = nv;
                ivec_push(&s->xwatches[nv], xid);
                continue;
            }
            *xj++ = xid;
            if (value[other] == VAL_UNDEF) {
                int val = x->rhs ^ parity;
                enqueue(s, (other << 1) | !val, XOR_REF(xid));
                xprops++;
            } else if (parity != x->rhs) {
                confl = XOR_REF(xid);
                while (xi != xend)
                    *xj++ = *xi++;
            }
        }
        xws->size = (int)(xj - xws->data);
        if (confl != NO_REASON)
            break;
    }
    s->stats[ST_PROPAGATIONS] += props;
    s->stats[ST_XOR_PROPAGATIONS] += xprops;
    return confl;
}

/* ------------------------------------------------------------------ */
/* Activities                                                          */
/* ------------------------------------------------------------------ */
static void rescale_vars(Solver *s)
{
    for (int u = 1; u <= s->nvars; u++)
        s->activity[u] *= RESCALE_FACTOR;
    s->var_inc *= RESCALE_FACTOR;
}

static void rescale_clauses(Solver *s)
{
    for (int k = 0; k < s->learnts.size; k++)
        s->ctab[s->learnts.data[k]]->act *= RESCALE_FACTOR;
    s->cla_inc *= RESCALE_FACTOR;
}

static void bump_var(Solver *s, int v)
{
    s->activity[v] += s->var_inc;
    if (s->activity[v] > RESCALE_LIMIT)
        rescale_vars(s);
    if (s->heap_pos[v] >= 0)
        heap_up(s, s->heap_pos[v]);
}

static void bump_clause(Solver *s, Clause *c)
{
    c->act += s->cla_inc;
    if (c->act > RESCALE_LIMIT)
        rescale_clauses(s);
}

static void decay_activities(Solver *s)
{
    s->var_inc *= s->var_decay;
    s->cla_inc *= s->cla_decay;
    if (s->var_inc > RESCALE_LIMIT)
        rescale_vars(s);
    if (s->cla_inc > RESCALE_LIMIT)
        rescale_clauses(s);
}

/* ------------------------------------------------------------------ */
/* Conflict analysis (first UIP) with basic minimisation               */
/* ------------------------------------------------------------------ */
/* Is every literal of var v's reason, other than v itself, seen or fixed
 * at the root? */
static int reason_redundant(const Solver *s, int v)
{
    int r = s->reason[v];
    if (r >= 0) {
        const Clause *c = s->ctab[r];
        for (int k = 1; k < c->size; k++) {
            int u = c->lits[k] >> 1;
            if (!s->seen[u] && s->level[u] > 0)
                return 0;
        }
        return 1;
    }
    const Xor *x = &s->xors[XOR_REF(r)];
    for (int k = 0; k < x->n; k++) {
        int u = x->vars[k];
        if (u != v && !s->seen[u] && s->level[u] > 0)
            return 0;
    }
    return 1;
}

/* Visit one literal of a reason during analysis. */
static inline void analyze_lit(Solver *s, int q, int cur, int *counter)
{
    int v = q >> 1;
    if (s->seen[v] || s->level[v] <= 0)
        return;
    s->seen[v] = 1;
    ivec_push(&s->to_clear, v);
    bump_var(s, v);
    if (s->level[v] >= cur)
        (*counter)++;
    else
        ivec_push(&s->learnt, q);
}

/* Leaves the learnt clause in s->learnt (asserting literal first) and
 * returns the backtrack level. */
static int analyze(Solver *s, int confl)
{
    int cur = s->trail_lim.size;
    int counter = 0;
    int p = -1;
    int idx = s->trail.size - 1;
    int reason = confl;
    s->learnt.size = 0;
    s->to_clear.size = 0;
    ivec_push(&s->learnt, 0);
    for (;;) {
        int skip = p >= 0 ? (p >> 1) : 0;
        if (reason >= 0) {
            Clause *c = s->ctab[reason];
            if (c->learnt)
                bump_clause(s, c);
            for (int k = p >= 0 ? 1 : 0; k < c->size; k++)
                analyze_lit(s, c->lits[k], cur, &counter);
        } else {
            const Xor *x = &s->xors[XOR_REF(reason)];
            for (int k = 0; k < x->n; k++) {
                int u = x->vars[k];
                if (u != skip)
                    analyze_lit(s, (u << 1) | s->value[u], cur, &counter);
            }
        }
        while (!s->seen[s->trail.data[idx] >> 1])
            idx--;
        p = s->trail.data[idx];
        idx--;
        counter--;
        if (counter == 0)
            break;
        reason = s->reason[p >> 1];
    }
    s->learnt.data[0] = p ^ 1;

    int j = 1;
    for (int i = 1; i < s->learnt.size; i++) {
        int q = s->learnt.data[i];
        int v = q >> 1;
        if (s->reason[v] == NO_REASON || !reason_redundant(s, v))
            s->learnt.data[j++] = q;
    }
    s->learnt.size = j;
    for (int i = 0; i < s->to_clear.size; i++)
        s->seen[s->to_clear.data[i]] = 0;

    int btlevel = 0;
    for (int i = 1; i < s->learnt.size; i++) {
        int lv = s->level[s->learnt.data[i] >> 1];
        if (lv > btlevel)
            btlevel = lv;
    }
    return btlevel;
}

static void record_learnt(Solver *s)
{
    int *lits = s->learnt.data;
    int n = s->learnt.size;
    s->stats[ST_LEARNED_CLAUSES]++;
    s->stats[ST_LEARNED_LITERALS] += n;
    if (n == 1) {
        enqueue(s, lits[0], NO_REASON);
        return;
    }
    int mi = 1;
    for (int k = 2; k < n; k++)
        if (s->level[lits[k] >> 1] > s->level[lits[mi] >> 1])
            mi = k;
    int t = lits[1];
    lits[1] = lits[mi];
    lits[mi] = t;
    int cref = new_clause(s, lits, n, 1);
    s->ctab[cref]->act = s->cla_inc;
    ivec_push(&s->learnts, cref);
    enqueue(s, lits[0], cref);
}

/* ------------------------------------------------------------------ */
/* Learnt-DB reduction                                                 */
/* ------------------------------------------------------------------ */
typedef struct { double act; int cref; } ActRef;

static int cmp_actref(const void *a, const void *b)
{
    const ActRef *x = a, *y = b;
    if (x->act < y->act)
        return -1;
    if (x->act > y->act)
        return 1;
    return x->cref - y->cref;
}

static int root_satisfied(const Solver *s, const Clause *c)
{
    for (int k = 0; k < c->size; k++) {
        int v = c->lits[k] >> 1;
        if (s->level[v] == 0 && lit_value(s, c->lits[k]) == VAL_TRUE)
            return 1;
    }
    return 0;
}

/* Throw away the less active half of the learnt clauses, and every learnt
 * clause satisfied at the root (which is how a released group's guarded
 * learnt clauses go). */
static void reduce_db(Solver *s)
{
    int n = s->learnts.size;
    s->stats[ST_DB_REDUCTIONS]++;
    ActRef *order = xrealloc(NULL, (size_t)(n ? n : 1) * sizeof(ActRef));
    for (int k = 0; k < n; k++) {
        order[k].cref = s->learnts.data[k];
        order[k].act = s->ctab[order[k].cref]->act;
    }
    qsort(order, (size_t)n, sizeof(ActRef), cmp_actref);
    int keep_from = n / 2;
    s->learnts.size = 0;
    for (int pos = 0; pos < n; pos++) {
        int cref = order[pos].cref;
        Clause *c = s->ctab[cref];
        int locked = is_locked(s, cref);
        if (!locked && root_satisfied(s, c)) {
            mark_deleted(s, cref);
            s->stats[ST_REMOVED_CLAUSES]++;
            continue;
        }
        if (pos >= keep_from || locked || c->size <= 2) {
            ivec_push(&s->learnts, cref);
            continue;
        }
        mark_deleted(s, cref);
        s->stats[ST_REMOVED_CLAUSES]++;
    }
    free(order);
    purge(s);
    s->max_learnts = (int64_t)((double)s->max_learnts * 1.1) + 16;
}

/* ------------------------------------------------------------------ */
/* Decisions                                                           */
/* ------------------------------------------------------------------ */
static int pick_branch_var(Solver *s)
{
    if (s->nvars && rng_double(s) < RANDOM_DECISION_FREQ) {
        int v = 1 + (int)(rng_next(s) % (uint64_t)s->nvars);
        if (s->value[v] == VAL_UNDEF)
            return v;
    }
    while (s->heap_size) {
        int v = heap_pop(s);
        if (s->value[v] == VAL_UNDEF)
            return v;
    }
    return 0;
}

/* Push the next decision: RES_SAT when every variable is assigned,
 * RES_UNSAT when an assumption is contradicted, else RES_NONE.  All
 * assumptions share one decision level (level 1). */
static int decide(Solver *s)
{
    if (s->assumps.size && !s->trail_lim.size) {
        ivec_push(&s->trail_lim, s->trail.size);
        int decided = 0;
        for (int k = 0; k < s->assumps.size; k++) {
            int p = s->assumps.data[k];
            int val = lit_value(s, p);
            if (val != VAL_UNDEF) {
                if (val == VAL_TRUE)
                    continue;
                return RES_UNSAT;
            }
            enqueue(s, p, NO_REASON);
            s->stats[ST_DECISIONS]++;
            decided = 1;
        }
        if (decided)
            return RES_NONE;
    }
    int v = pick_branch_var(s);
    if (!v)
        return RES_SAT;
    ivec_push(&s->trail_lim, s->trail.size);
    enqueue(s, (v << 1) | !s->phase[v], NO_REASON);
    s->stats[ST_DECISIONS]++;
    return RES_NONE;
}

/* ------------------------------------------------------------------ */
/* Exported API                                                        */
/* ------------------------------------------------------------------ */
Solver *rs_new(uint64_t seed, int phase_default, int64_t *shared,
               const double *limits)
{
    Solver *s = xrealloc(NULL, sizeof(Solver));
    memset(s, 0, sizeof(Solver));
    s->ok = 1;
    s->phase_default = phase_default ? 1 : 0;
    s->var_inc = 1.0;
    s->var_decay = 1.0 / 0.95;
    s->cla_inc = 1.0;
    s->cla_decay = 1.0 / 0.999;
    s->max_learnts = 4000;
    s->stats = shared;
    s->limits = limits;
    /* splitmix64 of the seed: a well-mixed, never-zero xorshift state */
    uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    s->rng = z ? z : 0x9E3779B97F4A7C15ULL;
    grow_vars(s, 16);
    return s;
}

void rs_free(Solver *s)
{
    if (!s)
        return;
    for (int cref = 0; cref < s->ctab_size; cref++)
        free(s->ctab[cref]);
    free(s->ctab);
    for (int l = 0; l < 2 * (s->cap_vars + 1); l++)
        free(s->watches[l].data);
    for (int v = 0; v <= s->cap_vars; v++)
        free(s->xwatches[v].data);
    for (int k = 0; k < s->nxors; k++)
        free(s->xors[k].vars);
    for (int g = 0; g < s->ngroups; g++) {
        ivec_free(&s->groups[g].aux);
        ivec_free(&s->groups[g].xids);
        ivec_free(&s->groups[g].clauses);
    }
    free(s->groups);
    free(s->xors);
    free(s->watches);
    free(s->xwatches);
    free(s->value);
    free(s->level);
    free(s->reason);
    free(s->phase);
    free(s->activity);
    free(s->seen);
    free(s->heap_pos);
    free(s->heap);
    free(s->lit_mark);
    ivec_free(&s->cfree);
    ivec_free(&s->clauses);
    ivec_free(&s->learnts);
    ivec_free(&s->pending);
    ivec_free(&s->trail);
    ivec_free(&s->trail_lim);
    ivec_free(&s->assumps);
    ivec_free(&s->learnt);
    ivec_free(&s->to_clear);
    ivec_free(&s->tmp);
    free(s);
}

int rs_ok(const Solver *s) { return s->ok; }

void rs_ensure_vars(Solver *s, int n) { ensure_vars(s, n); }

/* Add one clause of external (DIMACS) literals at the root.  Tautologies
 * are dropped, literals false at the root removed; an empty result makes
 * the instance unsatisfiable.  Returns the ok flag. */
int rs_add_clause(Solver *s, const int *ext, int n)
{
    cancel_until(s, 0);
    if (!s->ok)
        return 0;
    int maxv = 0;
    for (int k = 0; k < n; k++) {
        int v = ext[k] > 0 ? ext[k] : -ext[k];
        if (v > maxv)
            maxv = v;
    }
    ensure_vars(s, maxv);
    IVec *out = &s->tmp;
    out->size = 0;
    int drop = 0;
    for (int k = 0; k < n && !drop; k++) {
        int e = ext[k];
        int lit = e > 0 ? (e << 1) : ((-e) << 1) | 1;
        if (s->lit_mark[lit])
            continue;
        if (s->lit_mark[lit ^ 1]) {
            drop = 1;  /* tautology */
            break;
        }
        s->lit_mark[lit] = 1;
        ivec_push(out, lit);
    }
    for (int k = 0; k < out->size; k++)
        s->lit_mark[out->data[k]] = 0;
    if (drop)
        return 1;
    int j = 0;
    for (int k = 0; k < out->size; k++) {
        int val = lit_value(s, out->data[k]);
        if (val == VAL_TRUE)
            return 1;  /* satisfied at the root */
        if (val == VAL_UNDEF)
            out->data[j++] = out->data[k];
    }
    out->size = j;
    if (!j) {
        s->ok = 0;
        return 0;
    }
    if (j == 1) {
        enqueue(s, out->data[0], NO_REASON);
        return 1;
    }
    ivec_push(&s->clauses, new_clause(s, out->data, j, 0));
    return 1;
}

/* Add many clauses: ``flat`` holds each clause's literals followed by 0. */
int rs_add_clauses(Solver *s, const int *flat, int total)
{
    int start = 0;
    for (int k = 0; k < total; k++) {
        if (flat[k] == 0) {
            rs_add_clause(s, flat + start, k - start);
            start = k + 1;
        }
    }
    return s->ok;
}

/* Add a native XOR over sorted distinct variables; attached at the next
 * solve. */
int rs_add_xor(Solver *s, const int *vars, int n, int rhs)
{
    cancel_until(s, 0);
    if (!s->ok)
        return 0;
    if (n)
        ensure_vars(s, vars[n - 1]);
    new_xor(s, vars, n, 0, rhs);
    return 1;
}

/* Register a releasable XOR group.  ``flat`` holds, per row, its length,
 * its rhs, then its sorted variables.  Each row gets a fresh activator
 * variable folded into its parity, and the group a fresh guard variable
 * for its blocking clauses; ``aux_out`` (1 + nrows entries) receives the
 * guard and then the activators.  Returns the group id. */
int rs_add_xor_group(Solver *s, const int *flat, int nrows, int *aux_out)
{
    cancel_until(s, 0);
    if (s->ngroups == s->cap_groups) {
        s->cap_groups = s->cap_groups ? 2 * s->cap_groups : 16;
        s->groups = xrealloc(s->groups, (size_t)s->cap_groups * sizeof(Group));
    }
    int gid = s->ngroups++;
    Group *g = &s->groups[gid];
    memset(g, 0, sizeof(Group));
    ensure_vars(s, s->nvars + 1);
    ivec_push(&g->aux, s->nvars);
    aux_out[0] = s->nvars;
    int pos = 0;
    for (int r = 0; r < nrows; r++) {
        int n = flat[pos], rhs = flat[pos + 1];
        const int *vars = flat + pos + 2;
        pos += 2 + n;
        if (n)
            ensure_vars(s, vars[n - 1]);
        ensure_vars(s, s->nvars + 1);
        int activator = s->nvars;
        ivec_push(&g->aux, activator);
        aux_out[1 + r] = activator;
        ivec_push(&g->xids, new_xor(s, vars, n, activator, rhs));
    }
    return gid;
}

/* Retire a group for good: detach its rows, assign its auxiliary
 * variables at the root, drop its blocking clauses and every learnt
 * clause that mentions one of its variables. */
void rs_release_group(Solver *s, int gid)
{
    Group *g = &s->groups[gid];
    cancel_until(s, 0);
    for (int k = 0; k < g->xids.size; k++) {
        int xid = g->xids.data[k];
        Xor *x = &s->xors[xid];
        ivec_remove(&s->pending, xid);
        ivec_remove(&s->xwatches[x->wa], xid);
        if (x->wb != x->wa)
            ivec_remove(&s->xwatches[x->wb], xid);
        free(x->vars);
        x->vars = NULL;
        x->n = 0;
    }
    for (int k = 0; k < g->aux.size; k++) {
        int v = g->aux.data[k];
        s->seen[v] = 1;
        if (s->value[v] == VAL_UNDEF)
            enqueue(s, v << 1, NO_REASON);
    }
    for (int k = 0; k < g->clauses.size; k++)
        mark_deleted(s, g->clauses.data[k]);
    if (g->clauses.size)
        filter_deleted(s, &s->clauses);
    int j = 0;
    for (int k = 0; k < s->learnts.size; k++) {
        int cref = s->learnts.data[k];
        const Clause *c = s->ctab[cref];
        int dead = 0;
        for (int i = 0; i < c->size && !dead; i++)
            dead = s->seen[c->lits[i] >> 1];
        if (dead) {
            mark_deleted(s, cref);
            s->stats[ST_REMOVED_CLAUSES]++;
        } else {
            s->learnts.data[j++] = cref;
        }
    }
    s->learnts.size = j;
    for (int k = 0; k < g->aux.size; k++)
        s->seen[g->aux.data[k]] = 0;
    /* Root reasons are never read by analysis, but clear those that point
     * at what was just removed so nothing dangles. */
    for (int k = 0; k < s->trail.size; k++) {
        int v = s->trail.data[k] >> 1;
        int r = s->reason[v];
        if ((r >= 0 && s->ctab[r]->deleted)
            || (r <= -2 && !s->xors[XOR_REF(r)].vars))
            s->reason[v] = NO_REASON;
    }
    purge(s);
    ivec_free(&g->aux);
    ivec_free(&g->xids);
    ivec_free(&g->clauses);
}

/* Run CDCL search under ``ext_assumps`` and the shared limits (the
 * propagation limit bounds the cumulative counter).  Returns RES_SAT (the
 * satisfying trail stays in place), RES_UNSAT or RES_UNKNOWN. */
int rs_solve(Solver *s, const int *ext_assumps, int nassumps)
{
    int64_t max_conflicts = (int64_t)s->limits[LIM_CONFLICTS];
    int64_t max_props = (int64_t)s->limits[LIM_PROPAGATIONS];
    double timeout = s->limits[LIM_SECONDS];
    double deadline = timeout >= 0.0 ? now_seconds() + timeout : -1.0;
    IVec *cand = &s->tmp;
    cand->size = 0;
    int maxv = 0;
    for (int k = 0; k < nassumps; k++) {
        int e = ext_assumps[k];
        int v = e > 0 ? e : -e;
        if (v > maxv)
            maxv = v;
        ivec_push(cand, (v << 1) | (e < 0));
    }
    ensure_vars(s, maxv);
    int same = s->resume && cand->size == s->assumps.size
        && (!cand->size
            || !memcmp(cand->data, s->assumps.data,
                       (size_t)cand->size * sizeof(int)));
    if (!same || s->pending.size)
        cancel_until(s, 0);
    s->resume = 0;
    s->assumps.size = 0;
    for (int k = 0; k < cand->size; k++)
        ivec_push(&s->assumps, cand->data[k]);
    if (!s->ok)
        return RES_UNSAT;
    if (!attach_pending(s))
        return RES_UNSAT;

    int64_t local_conflicts = 0, since_restart = 0, restart_idx = 0;
    int64_t next_restart = RESTART_BASE * luby(0);
    for (;;) {
        int confl = propagate(s);
        if (confl != NO_REASON) {
            local_conflicts++;
            since_restart++;
            s->stats[ST_CONFLICTS]++;
            if (!s->trail_lim.size) {
                s->ok = 0;
                return RES_UNSAT;
            }
            if (s->assumps.size && s->trail_lim.size == 1) {
                /* Only the assumption level is decided: UNSAT under these
                 * assumptions, the base instance may still be fine. */
                cancel_until(s, 0);
                return RES_UNSAT;
            }
            int btlevel = analyze(s, confl);
            cancel_until(s, btlevel);
            record_learnt(s);
            decay_activities(s);
            if (max_conflicts >= 0 && local_conflicts >= max_conflicts) {
                cancel_until(s, 0);
                return RES_UNKNOWN;
            }
            if (max_props >= 0 && s->stats[ST_PROPAGATIONS] >= max_props) {
                cancel_until(s, 0);
                return RES_UNKNOWN;
            }
            if (since_restart >= next_restart) {
                s->stats[ST_RESTARTS]++;
                restart_idx++;
                next_restart = RESTART_BASE * luby(restart_idx);
                since_restart = 0;
                cancel_until(s, 0);
            }
            continue;
        }
        if (deadline >= 0.0 && now_seconds() > deadline) {
            cancel_until(s, 0);
            return RES_UNKNOWN;
        }
        if (s->learnts.size >= s->max_learnts)
            reduce_db(s);
        int outcome = decide(s);
        if (outcome == RES_SAT)
            return RES_SAT;
        if (outcome == RES_UNSAT) {
            cancel_until(s, 0);
            return RES_UNSAT;
        }
    }
}

/* Forbid the current model's values on ``svars`` and stay in place: the
 * blocking clause (plus the guard of group ``gid`` when gid >= 0) is
 * attached at its asserting level, and the next solve under the same
 * assumptions resumes from there.  Returns 0 when no further model can
 * exist. */
int rs_block_model(Solver *s, const int *svars, int n, int gid)
{
    IVec *lits = &s->tmp;
    lits->size = 0;
    for (int k = 0; k < n; k++) {
        int v = svars[k];
        if (v >= 1 && v <= s->nvars && s->value[v] != VAL_UNDEF
            && s->level[v] > 0)
            ivec_push(lits, (v << 1) | s->value[v]);
    }
    if (gid >= 0)
        ivec_push(lits, s->groups[gid].aux.data[0] << 1);
    if (!lits->size) {
        cancel_until(s, 0);
        s->ok = 0;
        return 0;
    }
    int *l = lits->data;
    int top = 0;
    for (int k = 1; k < lits->size; k++)
        if (s->level[l[k] >> 1] > s->level[l[top] >> 1])
            top = k;
    int t = l[0];
    l[0] = l[top];
    l[top] = t;
    s->resume = 1;
    if (lits->size == 1) {
        cancel_until(s, 0);
        enqueue(s, l[0], NO_REASON);
        return 1;
    }
    int second = 1;
    for (int k = 2; k < lits->size; k++)
        if (s->level[l[k] >> 1] > s->level[l[second] >> 1])
            second = k;
    t = l[1];
    l[1] = l[second];
    l[second] = t;
    int high = s->level[l[0] >> 1];
    int asserting = s->level[l[1] >> 1];
    cancel_until(s, asserting == high ? high - 1 : asserting);
    int cref = new_clause(s, l, lits->size, 0);
    ivec_push(&s->clauses, cref);
    if (gid >= 0)
        ivec_push(&s->groups[gid].clauses, cref);
    if (asserting != high)
        enqueue(s, s->ctab[cref]->lits[0], cref);
    return 1;
}
