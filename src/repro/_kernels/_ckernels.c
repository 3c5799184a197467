/* Compiled placement kernels — bit-exact C twins of repro._kernels.pyref.
 *
 * The contract lives in pyref.py: same arithmetic, same ``inf * 0 == 0``
 * convention, same accumulation order, same journal record shapes, same
 * status codes.  Every function here operates on the very same Python
 * objects the pure backend does (the ledger's id-indexed lists, the
 * journal op list, the overcommit set), so switching backends mid-process
 * is safe and the differential suite can replay one op sequence through
 * both implementations against identical state.
 *
 * Floating-point discipline: all arithmetic is double-precision in the
 * same operation order as the Python source, and the build disables
 * FP contraction (-ffp-contract=off) so no FMA can fuse a multiply-add
 * that CPython performs as two roundings.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdlib.h>
#include <string.h>

/* Journal op tag shared with repro.topology.ledger.OP_BANDWIDTH. */
#define OP_BANDWIDTH 1

/* ------------------------------------------------------------------ */
/* helpers                                                            */
/* ------------------------------------------------------------------ */

static inline double
list_double(PyObject *list, Py_ssize_t i)
{
    return PyFloat_AsDouble(PyList_GET_ITEM(list, i));
}

static inline Py_ssize_t
list_index(PyObject *list, Py_ssize_t i)
{
    return PyLong_AsSsize_t(PyList_GET_ITEM(list, i));
}

static inline int
list_store_double(PyObject *list, Py_ssize_t i, double value)
{
    PyObject *boxed = PyFloat_FromDouble(value);
    if (boxed == NULL)
        return -1;
    /* PyList_SetItem steals the reference and releases the old item. */
    return PyList_SetItem(list, i, boxed);
}

/* ------------------------------------------------------------------ */
/* kernel 1: fused reservation adjust + feasibility check             */
/* ------------------------------------------------------------------ */

/* The body of ledger_adjust: returns the status code (0 applied /
 * 1 refused / 2 negative), mutating used/over/ops. */
static int
adjust_core(PyObject *used_up, PyObject *used_down, PyObject *cap_up,
            PyObject *cap_down, PyObject *over, PyObject *ops,
            Py_ssize_t node_id, double delta_up, double delta_down,
            int enforce, double eps)
{
    double prev_up = list_double(used_up, node_id);
    double prev_down = list_double(used_down, node_id);
    double new_up = prev_up + delta_up;
    double new_down = prev_down + delta_down;
    int is_over;
    PyObject *key, *record, *boxed;

    if (new_up < -eps || new_down < -eps)
        return 2;
    is_over = (new_up > list_double(cap_up, node_id) + eps ||
               new_down > list_double(cap_down, node_id) + eps);
    if (enforce && is_over)
        return 1;
    if (list_store_double(used_up, node_id, new_up > 0.0 ? new_up : 0.0) < 0)
        return -1;
    if (list_store_double(used_down, node_id,
                          new_down > 0.0 ? new_down : 0.0) < 0)
        return -1;
    key = PyLong_FromSsize_t(node_id);
    if (key == NULL)
        return -1;
    if (is_over ? PySet_Add(over, key) < 0
                : PySet_Discard(over, key) < 0) {
        Py_DECREF(key);
        return -1;
    }
    /* (OP_BANDWIDTH, node_id, prev_up, prev_down) built by hand — this
     * append runs once per adjust. */
    record = PyTuple_New(4);
    if (record == NULL) {
        Py_DECREF(key);
        return -1;
    }
    boxed = PyLong_FromLong(OP_BANDWIDTH);
    if (boxed == NULL)
        goto fail;
    PyTuple_SET_ITEM(record, 0, boxed);
    Py_INCREF(key);
    PyTuple_SET_ITEM(record, 1, key);
    boxed = PyFloat_FromDouble(prev_up);
    if (boxed == NULL)
        goto fail;
    PyTuple_SET_ITEM(record, 2, boxed);
    boxed = PyFloat_FromDouble(prev_down);
    if (boxed == NULL)
        goto fail;
    PyTuple_SET_ITEM(record, 3, boxed);
    if (PyList_Append(ops, record) < 0)
        goto fail;
    Py_DECREF(record);
    Py_DECREF(key);
    return 0;

fail:
    Py_DECREF(record);
    Py_DECREF(key);
    return -1;
}

/* Both adjust entry points use METH_FASTCALL: they are the per-op hot
 * path of the replay workloads, where PyArg_ParseTuple's per-call
 * format-string walk is measurable against the tiny kernel body. */
static PyObject *
k_ledger_adjust(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t node_id;
    double delta_up, delta_down, eps;
    int enforce, status;

    if (nargs != 11) {
        PyErr_SetString(PyExc_TypeError,
                        "ledger_adjust expects 11 arguments");
        return NULL;
    }
    node_id = PyNumber_AsSsize_t(args[6], PyExc_OverflowError);
    delta_up = PyFloat_AsDouble(args[7]);
    delta_down = PyFloat_AsDouble(args[8]);
    enforce = PyObject_IsTrue(args[9]);
    eps = PyFloat_AsDouble(args[10]);
    if (enforce < 0 || PyErr_Occurred())
        return NULL;
    status = adjust_core(args[0], args[1], args[2], args[3], args[4],
                         args[5], node_id, delta_up, delta_down, enforce,
                         eps);
    if (status < 0 || PyErr_Occurred())
        return NULL;
    return PyLong_FromLong(status);
}

static PyObject *
k_temporal_adjust(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *up, *down, *max_up, *max_down, *cap_up, *cap_down;
    PyObject *over, *ops, *ratios;
    Py_ssize_t node_id, windows, base, w;
    double delta_up, delta_down, eps;
    int enforce, is_over;
    double stack_buf[128];
    double *new_up, *new_down;
    double col_max_up, col_max_down;
    PyObject *prev_up_list = NULL, *prev_down_list = NULL;
    PyObject *key = NULL, *record = NULL;

    if (nargs != 15) {
        PyErr_SetString(PyExc_TypeError,
                        "temporal_adjust expects 15 arguments");
        return NULL;
    }
    up = args[0];
    down = args[1];
    max_up = args[2];
    max_down = args[3];
    cap_up = args[4];
    cap_down = args[5];
    over = args[6];
    ops = args[7];
    ratios = args[8];
    if (!PyTuple_Check(ratios)) {
        PyErr_SetString(PyExc_TypeError,
                        "temporal_adjust: ratios must be a tuple");
        return NULL;
    }
    node_id = PyNumber_AsSsize_t(args[9], PyExc_OverflowError);
    windows = PyNumber_AsSsize_t(args[10], PyExc_OverflowError);
    delta_up = PyFloat_AsDouble(args[11]);
    delta_down = PyFloat_AsDouble(args[12]);
    enforce = PyObject_IsTrue(args[13]);
    eps = PyFloat_AsDouble(args[14]);
    if (enforce < 0 || PyErr_Occurred())
        return NULL;
    if (windows <= 64) {
        new_up = stack_buf;
        new_down = stack_buf + 64;
    }
    else {
        new_up = (double *)PyMem_Malloc(2 * windows * sizeof(double));
        if (new_up == NULL)
            return PyErr_NoMemory();
        new_down = new_up + windows;
    }
    base = node_id * windows;
    {
        double min_up = INFINITY, min_down = INFINITY;
        for (w = 0; w < windows; w++) {
            double r = PyFloat_AsDouble(PyTuple_GET_ITEM(ratios, w));
            double pu = list_double(up, base + w);
            double pd = list_double(down, base + w);
            double nu = pu + delta_up * r;
            double nd = pd + delta_down * r;
            new_up[w] = nu;
            new_down[w] = nd;
            if (nu < min_up)
                min_up = nu;
            if (nd < min_down)
                min_down = nd;
        }
        if (PyErr_Occurred())
            goto fail;
        if (delta_up < 0.0 || delta_down < 0.0) {
            /* Columns can only dip negative on a release-style delta. */
            if (min_up < -eps || min_down < -eps) {
                if (new_up != stack_buf)
                    PyMem_Free(new_up);
                return PyLong_FromLong(2);
            }
            for (w = 0; w < windows; w++) {
                if (!(new_up[w] > 0.0))
                    new_up[w] = 0.0;
                if (!(new_down[w] > 0.0))
                    new_down[w] = 0.0;
            }
        }
    }
    col_max_up = -INFINITY;
    col_max_down = -INFINITY;
    for (w = 0; w < windows; w++) {
        if (new_up[w] > col_max_up)
            col_max_up = new_up[w];
        if (new_down[w] > col_max_down)
            col_max_down = new_down[w];
    }
    is_over = (col_max_up > list_double(cap_up, node_id) + eps ||
               col_max_down > list_double(cap_down, node_id) + eps);
    if (enforce && is_over) {
        if (new_up != stack_buf)
            PyMem_Free(new_up);
        return PyLong_FromLong(1);
    }
    /* Journal the previous column + previous maxima, then write. */
    prev_up_list = PyList_New(windows);
    prev_down_list = PyList_New(windows);
    if (prev_up_list == NULL || prev_down_list == NULL)
        goto fail;
    for (w = 0; w < windows; w++) {
        PyObject *item = PyList_GET_ITEM(up, base + w);
        Py_INCREF(item);
        PyList_SET_ITEM(prev_up_list, w, item);
        item = PyList_GET_ITEM(down, base + w);
        Py_INCREF(item);
        PyList_SET_ITEM(prev_down_list, w, item);
    }
    record = Py_BuildValue("(inOOdd)", OP_BANDWIDTH, node_id, prev_up_list,
                           prev_down_list, list_double(max_up, node_id),
                           list_double(max_down, node_id));
    if (record == NULL || PyErr_Occurred())
        goto fail;
    Py_CLEAR(prev_up_list);
    Py_CLEAR(prev_down_list);
    if (PyList_Append(ops, record) < 0)
        goto fail;
    Py_CLEAR(record);
    for (w = 0; w < windows; w++) {
        if (list_store_double(up, base + w, new_up[w]) < 0 ||
            list_store_double(down, base + w, new_down[w]) < 0)
            goto fail;
    }
    if (list_store_double(max_up, node_id, col_max_up) < 0 ||
        list_store_double(max_down, node_id, col_max_down) < 0)
        goto fail;
    key = PyLong_FromSsize_t(node_id);
    if (key == NULL)
        goto fail;
    if (is_over ? PySet_Add(over, key) < 0 : PySet_Discard(over, key) < 0)
        goto fail;
    Py_CLEAR(key);
    if (new_up != stack_buf)
        PyMem_Free(new_up);
    return PyLong_FromLong(0);

fail:
    Py_XDECREF(prev_up_list);
    Py_XDECREF(prev_down_list);
    Py_XDECREF(record);
    Py_XDECREF(key);
    if (new_up != stack_buf)
        PyMem_Free(new_up);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* kernel 2: the SecondNet path-link machinery                        */
/* ------------------------------------------------------------------ */

/* Walk src->dst over the parent/depth arrays into link_ids/link_up.
 * Returns the link count, or -1 on conversion error.  Order matches
 * pyref: destination side (down) first, then source side (up). */
#define MAX_PATH_LINKS 256

static Py_ssize_t
collect_path_links(PyObject *parent, PyObject *depth, Py_ssize_t src_id,
                   Py_ssize_t dst_id, Py_ssize_t *link_ids, char *link_up)
{
    Py_ssize_t a = src_id, b = dst_id, lca, node_id, count = 0;

    while (list_index(depth, a) > list_index(depth, b))
        a = list_index(parent, a);
    while (list_index(depth, b) > list_index(depth, a))
        b = list_index(parent, b);
    while (a != b) {
        a = list_index(parent, a);
        b = list_index(parent, b);
    }
    if (PyErr_Occurred())
        return -1;
    lca = a;
    for (node_id = dst_id; node_id != lca; node_id = list_index(parent, node_id)) {
        if (count >= MAX_PATH_LINKS)
            goto overflow;
        link_ids[count] = node_id;
        link_up[count++] = 0;
    }
    for (node_id = src_id; node_id != lca; node_id = list_index(parent, node_id)) {
        if (count >= MAX_PATH_LINKS)
            goto overflow;
        link_ids[count] = node_id;
        link_up[count++] = 1;
    }
    if (PyErr_Occurred())
        return -1;
    return count;

overflow:
    PyErr_SetString(PyExc_OverflowError,
                    "path longer than the kernel's 256-link bound");
    return -1;
}

static PyObject *
k_path_link_ids(PyObject *self, PyObject *args)
{
    PyObject *parent, *depth, *result;
    Py_ssize_t src_id, dst_id, count, i;
    Py_ssize_t link_ids[MAX_PATH_LINKS];
    char link_up[MAX_PATH_LINKS];

    if (!PyArg_ParseTuple(args, "OOnn", &parent, &depth, &src_id, &dst_id))
        return NULL;
    count = collect_path_links(parent, depth, src_id, dst_id, link_ids,
                               link_up);
    if (count < 0)
        return NULL;
    result = PyList_New(count);
    if (result == NULL)
        return NULL;
    for (i = 0; i < count; i++) {
        PyObject *pair = Py_BuildValue("(nO)", link_ids[i],
                                       link_up[i] ? Py_True : Py_False);
        if (pair == NULL) {
            Py_DECREF(result);
            return NULL;
        }
        PyList_SET_ITEM(result, i, pair);
    }
    return result;
}

/* One (peer_id, bandwidth, outgoing) triple unpacked from a peers row. */
static int
unpack_peer(PyObject *row, Py_ssize_t *peer_id, double *bandwidth,
            int *outgoing)
{
    PyObject *flag;

    if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "peer rows must be (peer_id, bandwidth, outgoing)");
        return -1;
    }
    *peer_id = PyLong_AsSsize_t(PyTuple_GET_ITEM(row, 0));
    *bandwidth = PyFloat_AsDouble(PyTuple_GET_ITEM(row, 1));
    flag = PyTuple_GET_ITEM(row, 2);
    *outgoing = PyObject_IsTrue(flag);
    if (*outgoing < 0 || PyErr_Occurred())
        return -1;
    return 0;
}

/* One (cost, input position, rack id) row of the rack sweep; qsort
 * with the position tiebreak is exactly a stable sort by cost. */
typedef struct {
    double cost;
    Py_ssize_t position;
    Py_ssize_t rack_id;
} RackCost;

static int
rack_cost_compare(const void *a, const void *b)
{
    const RackCost *x = (const RackCost *)a;
    const RackCost *y = (const RackCost *)b;

    if (x->cost < y->cost)
        return -1;
    if (x->cost > y->cost)
        return 1;
    return (x->position < y->position) ? -1
                                       : (x->position > y->position ? 1 : 0);
}

static PyObject *
k_rack_order(PyObject *self, PyObject *args)
{
    PyObject *parent, *free_subtree, *rack_ids, *peers, *result;
    Py_ssize_t n_racks, n_feasible = 0, n_peers, r, p;
    Py_ssize_t *peer_rack = NULL, *peer_pod = NULL;
    double *peer_bw = NULL;
    /* Per-pod cost cache for the no-hosted-peer equivalence classes. */
    Py_ssize_t *cached_pod = NULL;
    double *cached_cost = NULL;
    Py_ssize_t n_cached = 0;
    RackCost *rows = NULL;

    if (!PyArg_ParseTuple(args, "OOO!O!", &parent, &free_subtree,
                          &PyList_Type, &rack_ids, &PyList_Type, &peers))
        return NULL;
    n_racks = PyList_GET_SIZE(rack_ids);
    n_peers = PyList_GET_SIZE(peers);
    rows = (RackCost *)PyMem_Malloc(
        (n_racks > 0 ? n_racks : 1) * sizeof(RackCost));
    cached_pod = (Py_ssize_t *)PyMem_Malloc(
        (n_racks > 0 ? n_racks : 1) * sizeof(Py_ssize_t));
    cached_cost = (double *)PyMem_Malloc(
        (n_racks > 0 ? n_racks : 1) * sizeof(double));
    if (rows == NULL || cached_pod == NULL || cached_cost == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (r = 0; r < n_racks; r++) {
        Py_ssize_t rack_id = PyLong_AsSsize_t(PyList_GET_ITEM(rack_ids, r));

        if (rack_id == -1 && PyErr_Occurred())
            goto fail;
        if (list_index(free_subtree, rack_id) > 0) {
            rows[n_feasible].cost = 0.0;
            rows[n_feasible].position = n_feasible;
            rows[n_feasible++].rack_id = rack_id;
        }
    }
    if (PyErr_Occurred())
        goto fail;
    if (n_peers > 0) {
        peer_rack = (Py_ssize_t *)PyMem_Malloc(
            2 * n_peers * sizeof(Py_ssize_t));
        peer_bw = (double *)PyMem_Malloc(n_peers * sizeof(double));
        if (peer_rack == NULL || peer_bw == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        peer_pod = peer_rack + n_peers;
        for (p = 0; p < n_peers; p++) {
            Py_ssize_t peer_id;
            double bandwidth;
            int outgoing;

            if (unpack_peer(PyList_GET_ITEM(peers, p), &peer_id, &bandwidth,
                            &outgoing) < 0)
                goto fail;
            peer_rack[p] = list_index(parent, peer_id);
            peer_pod[p] = list_index(parent, peer_rack[p]);
            peer_bw[p] = bandwidth;
        }
        if (PyErr_Occurred())
            goto fail;
        for (r = 0; r < n_feasible; r++) {
            Py_ssize_t rack_id = rows[r].rack_id;
            Py_ssize_t pod_id = list_index(parent, rack_id);
            Py_ssize_t i;
            double cost = 0.0;
            int hosts = 0;

            for (p = 0; p < n_peers; p++) {
                if (peer_rack[p] == rack_id) {
                    hosts = 1;
                    break;
                }
            }
            if (!hosts) {
                for (i = 0; i < n_cached; i++) {
                    if (cached_pod[i] == pod_id)
                        break;
                }
                if (i < n_cached) {
                    rows[r].cost = cached_cost[i];
                    continue;
                }
            }
            for (p = 0; p < n_peers; p++) {
                if (peer_rack[p] == rack_id)
                    cost += peer_bw[p] * 2;
                else if (peer_pod[p] == pod_id)
                    cost += peer_bw[p] * 4;
                else
                    cost += peer_bw[p] * 6;
            }
            if (!hosts) {
                cached_pod[n_cached] = pod_id;
                cached_cost[n_cached++] = cost;
            }
            rows[r].cost = cost;
        }
        if (PyErr_Occurred())
            goto fail;
        qsort(rows, n_feasible, sizeof(RackCost), rack_cost_compare);
    }
    result = PyList_New(n_feasible);
    if (result == NULL)
        goto fail;
    for (r = 0; r < n_feasible; r++) {
        PyObject *boxed = PyLong_FromSsize_t(rows[r].rack_id);
        if (boxed == NULL) {
            Py_DECREF(result);
            goto fail;
        }
        PyList_SET_ITEM(result, r, boxed);
    }
    PyMem_Free(rows);
    if (peer_rack != NULL)
        PyMem_Free(peer_rack);
    if (peer_bw != NULL)
        PyMem_Free(peer_bw);
    PyMem_Free(cached_pod);
    PyMem_Free(cached_cost);
    return result;

fail:
    PyMem_Free(rows);
    if (peer_rack != NULL)
        PyMem_Free(peer_rack);
    if (peer_bw != NULL)
        PyMem_Free(peer_bw);
    PyMem_Free(cached_pod);
    PyMem_Free(cached_cost);
    return NULL;
}

/* Accumulated per-link demand, open-addressed by linear scan (the link
 * count per candidate is tiny: peers x path length). */
typedef struct {
    Py_ssize_t node_id;
    char is_up;
    double amount;
} LinkDemand;

static PyObject *
k_pipes_feasible(PyObject *self, PyObject *args)
{
    PyObject *parent, *depth, *used_up, *used_down, *cap_up, *cap_down;
    PyObject *peers;
    Py_ssize_t server_id, n_peers, p, i, n_links = 0;
    LinkDemand stack_links[MAX_PATH_LINKS];
    LinkDemand *links = stack_links;
    Py_ssize_t capacity = MAX_PATH_LINKS;

    if (!PyArg_ParseTuple(args, "OOOOOOnO!", &parent, &depth, &used_up,
                          &used_down, &cap_up, &cap_down, &server_id,
                          &PyList_Type, &peers))
        return NULL;
    n_peers = PyList_GET_SIZE(peers);
    for (p = 0; p < n_peers; p++) {
        Py_ssize_t peer_id, src_id, dst_id, count, j;
        double bandwidth;
        int outgoing;
        Py_ssize_t link_ids[MAX_PATH_LINKS];
        char link_up[MAX_PATH_LINKS];

        if (unpack_peer(PyList_GET_ITEM(peers, p), &peer_id, &bandwidth,
                        &outgoing) < 0)
            goto fail;
        if (peer_id == server_id)
            continue;
        if (outgoing) {
            src_id = server_id;
            dst_id = peer_id;
        }
        else {
            src_id = peer_id;
            dst_id = server_id;
        }
        count = collect_path_links(parent, depth, src_id, dst_id, link_ids,
                                   link_up);
        if (count < 0)
            goto fail;
        for (j = 0; j < count; j++) {
            for (i = 0; i < n_links; i++) {
                if (links[i].node_id == link_ids[j] &&
                    links[i].is_up == link_up[j]) {
                    links[i].amount += bandwidth;
                    break;
                }
            }
            if (i == n_links) {
                if (n_links == capacity) {
                    Py_ssize_t grown = capacity * 2;
                    LinkDemand *fresh =
                        (LinkDemand *)PyMem_Malloc(grown * sizeof(LinkDemand));
                    if (fresh == NULL) {
                        PyErr_NoMemory();
                        goto fail;
                    }
                    memcpy(fresh, links, n_links * sizeof(LinkDemand));
                    if (links != stack_links)
                        PyMem_Free(links);
                    links = fresh;
                    capacity = grown;
                }
                links[n_links].node_id = link_ids[j];
                links[n_links].is_up = link_up[j];
                links[n_links].amount = bandwidth;
                n_links++;
            }
        }
    }
    for (i = 0; i < n_links; i++) {
        Py_ssize_t node_id = links[i].node_id;
        double available =
            links[i].is_up
                ? list_double(cap_up, node_id) - list_double(used_up, node_id)
                : list_double(cap_down, node_id) -
                      list_double(used_down, node_id);
        if (links[i].amount > available) {
            if (links != stack_links)
                PyMem_Free(links);
            if (PyErr_Occurred())
                return NULL;
            Py_RETURN_FALSE;
        }
    }
    if (links != stack_links)
        PyMem_Free(links);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_TRUE;

fail:
    if (links != stack_links)
        PyMem_Free(links);
    return NULL;
}

/* A small open-addressing map from non-negative ids to indices: the
 * per-call working storage of commit_pipes (tens to hundreds of keys). */
typedef struct {
    Py_ssize_t *keys; /* -1 marks an empty slot */
    Py_ssize_t *values;
    Py_ssize_t mask;
    Py_ssize_t count;
} IdMap;

static int
idmap_init(IdMap *map, Py_ssize_t size) /* size: a power of two */
{
    Py_ssize_t i;

    map->keys = (Py_ssize_t *)PyMem_Malloc(2 * size * sizeof(Py_ssize_t));
    if (map->keys == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    map->values = map->keys + size;
    for (i = 0; i < size; i++)
        map->keys[i] = -1;
    map->mask = size - 1;
    map->count = 0;
    return 0;
}

/* The slot holding ``key``, or the empty slot where it belongs. */
static Py_ssize_t
idmap_slot(const IdMap *map, Py_ssize_t key)
{
    size_t i = ((size_t)key * 0x9E3779B97F4A7C15ULL) >> 7;

    for (i &= (size_t)map->mask; map->keys[i] != -1 && map->keys[i] != key;
         i = (i + 1) & (size_t)map->mask)
        ;
    return (Py_ssize_t)i;
}

/* Fill the empty ``slot`` and grow the table past half full. */
static int
idmap_insert(IdMap *map, Py_ssize_t slot, Py_ssize_t key, Py_ssize_t value)
{
    IdMap grown;
    Py_ssize_t i;

    map->keys[slot] = key;
    map->values[slot] = value;
    if (++map->count * 2 <= map->mask + 1)
        return 0;
    if (idmap_init(&grown, 2 * (map->mask + 1)) < 0)
        return -1;
    for (i = 0; i <= map->mask; i++) {
        if (map->keys[i] != -1) {
            Py_ssize_t at = idmap_slot(&grown, map->keys[i]);
            grown.keys[at] = map->keys[i];
            grown.values[at] = map->values[i];
        }
    }
    grown.count = map->count;
    PyMem_Free(map->keys);
    *map = grown;
    return 0;
}

/* ``buf`` (``*cap`` items of ``size`` bytes) grown to hold ``need``
 * items; NULL with MemoryError set, ``buf`` then still owned. */
static void *
grow_buffer(void *buf, Py_ssize_t *cap, Py_ssize_t need, size_t size)
{
    Py_ssize_t fresh = *cap ? *cap : 64;
    void *grown;

    if (need <= *cap)
        return buf;
    while (fresh < need)
        fresh *= 2;
    grown = PyMem_Realloc(buf, fresh * size);
    if (grown == NULL)
        return PyErr_NoMemory();
    *cap = fresh;
    return grown;
}

/* One touched node's running sums: the ledger's and the reserved
 * record's values, plus every pipe bandwidth crossing it so far. */
typedef struct {
    Py_ssize_t node_id;
    double used_up, used_down, reserved_up, reserved_down;
} NodeSum;

typedef struct {
    IdMap index; /* node id -> position in sums */
    NodeSum *sums; /* first-touch order */
    Py_ssize_t n_sums, cap;
} NodeSums;

/* Position of ``node_id``'s sums, seeded from the ledger and
 * ``reserved`` on first touch; -1 on error. */
static Py_ssize_t
node_sum(NodeSums *nodes, Py_ssize_t node_id, PyObject *used_up,
         PyObject *used_down, PyObject *reserved)
{
    Py_ssize_t slot = idmap_slot(&nodes->index, node_id);
    PyObject *key, *entry;
    NodeSum *sum;

    if (nodes->index.keys[slot] == node_id)
        return nodes->index.values[slot];
    sum = grow_buffer(nodes->sums, &nodes->cap, nodes->n_sums + 1,
                      sizeof(NodeSum));
    if (sum == NULL)
        return -1;
    nodes->sums = sum;
    sum += nodes->n_sums;
    sum->node_id = node_id;
    sum->used_up = list_double(used_up, node_id);
    sum->used_down = list_double(used_down, node_id);
    key = PyLong_FromSsize_t(node_id);
    if (key == NULL)
        return -1;
    entry = PyDict_GetItemWithError(reserved, key); /* borrowed */
    Py_DECREF(key);
    if (entry == NULL) {
        sum->reserved_up = 0.0;
        sum->reserved_down = 0.0;
    }
    else {
        sum->reserved_up = list_double(entry, 0);
        sum->reserved_down = list_double(entry, 1);
    }
    if (PyErr_Occurred() ||
        idmap_insert(&nodes->index, slot, node_id, nodes->n_sums) < 0)
        return -1;
    return nodes->n_sums++;
}

/* Journal, write and record one touched node (the commit's success
 * path); 0 on success, -1 on error. */
static int
write_node_sum(const NodeSum *sum, PyObject *used_up, PyObject *used_down,
               PyObject *over, PyObject *ops, PyObject *reserved)
{
    Py_ssize_t node_id = sum->node_id;
    PyObject *key, *record, *entry;
    int failed;

    key = PyLong_FromSsize_t(node_id);
    if (key == NULL)
        return -1;
    record = Py_BuildValue("(iOOO)", OP_BANDWIDTH, key,
                           PyList_GET_ITEM(used_up, node_id),
                           PyList_GET_ITEM(used_down, node_id));
    failed = record == NULL || PyList_Append(ops, record) < 0;
    Py_XDECREF(record);
    if (failed ||
        list_store_double(used_up, node_id,
                          sum->used_up > 0.0 ? sum->used_up : 0.0) < 0 ||
        list_store_double(used_down, node_id,
                          sum->used_down > 0.0 ? sum->used_down : 0.0) < 0 ||
        PySet_Discard(over, key) < 0)
        goto fail;
    entry = PyDict_GetItemWithError(reserved, key); /* borrowed */
    if (entry == NULL) {
        if (PyErr_Occurred())
            goto fail;
        entry = Py_BuildValue("[dd]", sum->reserved_up, sum->reserved_down);
        failed = entry == NULL || PyDict_SetItem(reserved, key, entry) < 0;
        Py_XDECREF(entry);
        if (failed)
            goto fail;
    }
    else if (list_store_double(entry, 0, sum->reserved_up) < 0 ||
             list_store_double(entry, 1, sum->reserved_down) < 0)
        goto fail;
    Py_DECREF(key);
    return 0;

fail:
    Py_DECREF(key);
    return -1;
}

static PyObject *
k_commit_pipes(PyObject *self, PyObject *args)
{
    PyObject *parent, *depth, *used_up, *used_down, *cap_up, *cap_down;
    PyObject *over, *ops, *reserved, *peers, *result = NULL;
    Py_ssize_t server_id, n_peers, p, i;
    double eps;
    NodeSums nodes = {{NULL}, NULL, 0, 0};
    IdMap paths = {NULL};
    /* Each distinct path as [count, step...], a step being a NodeSum
     * position * 2 + is_up; ``paths`` maps peer_id * 2 + outgoing to
     * the path's offset here. */
    Py_ssize_t *steps = NULL;
    Py_ssize_t n_steps = 0, steps_cap = 0;

    if (!PyArg_ParseTuple(args, "OOOOOOOOOnO!d", &parent, &depth, &used_up,
                          &used_down, &cap_up, &cap_down, &over, &ops,
                          &reserved, &server_id, &PyList_Type, &peers, &eps))
        return NULL;
    if (idmap_init(&nodes.index, 64) < 0 || idmap_init(&paths, 64) < 0)
        goto done;
    n_peers = PyList_GET_SIZE(peers);
    for (p = 0; p < n_peers; p++) {
        Py_ssize_t peer_id, key, slot, start, j;
        double bandwidth;
        int outgoing;

        if (unpack_peer(PyList_GET_ITEM(peers, p), &peer_id, &bandwidth,
                        &outgoing) < 0)
            goto done;
        if (peer_id == server_id)
            continue;
        key = peer_id * 2 + outgoing;
        slot = idmap_slot(&paths, key);
        if (paths.keys[slot] == key)
            start = paths.values[slot];
        else {
            Py_ssize_t link_ids[MAX_PATH_LINKS];
            char link_up[MAX_PATH_LINKS];
            Py_ssize_t *grown;
            Py_ssize_t count = outgoing
                ? collect_path_links(parent, depth, server_id, peer_id,
                                     link_ids, link_up)
                : collect_path_links(parent, depth, peer_id, server_id,
                                     link_ids, link_up);

            if (count < 0)
                goto done;
            grown = grow_buffer(steps, &steps_cap, n_steps + 1 + count,
                                sizeof(Py_ssize_t));
            if (grown == NULL)
                goto done;
            steps = grown;
            start = n_steps;
            steps[n_steps++] = count;
            for (j = 0; j < count; j++) {
                Py_ssize_t at = node_sum(&nodes, link_ids[j], used_up,
                                         used_down, reserved);
                if (at < 0)
                    goto done;
                steps[n_steps++] = at * 2 + link_up[j];
            }
            if (idmap_insert(&paths, slot, key, start) < 0)
                goto done;
        }
        for (j = 1; j <= steps[start]; j++) {
            NodeSum *sum = &nodes.sums[steps[start + j] >> 1];

            if (steps[start + j] & 1) {
                sum->used_up += bandwidth;
                sum->reserved_up += bandwidth;
            }
            else {
                sum->used_down += bandwidth;
                sum->reserved_down += bandwidth;
            }
        }
    }
    for (i = 0; i < nodes.n_sums; i++) {
        const NodeSum *sum = &nodes.sums[i];

        if (sum->used_up > list_double(cap_up, sum->node_id) + eps ||
            sum->used_down > list_double(cap_down, sum->node_id) + eps) {
            result = PyErr_Occurred() ? NULL : PyLong_FromLong(1);
            goto done;
        }
    }
    if (PyErr_Occurred())
        goto done;
    for (i = 0; i < nodes.n_sums; i++) {
        if (write_node_sum(&nodes.sums[i], used_up, used_down, over, ops,
                           reserved) < 0)
            goto done;
    }
    result = PyLong_FromLong(0);

done:
    PyMem_Free(nodes.index.keys);
    PyMem_Free(nodes.sums);
    PyMem_Free(paths.keys);
    PyMem_Free(steps);
    return result;
}

/* ------------------------------------------------------------------ */
/* kernel 3: flattened-edge requirement evaluation (Eq. 1 / VOC)      */
/* ------------------------------------------------------------------ */

/* inside.get(name, 0) over the tier-count dict. */
static inline long
inside_count(PyObject *inside, PyObject *name, int *error)
{
    PyObject *value = PyDict_GetItemWithError(inside, name);
    long count;

    if (value == NULL) {
        if (PyErr_Occurred())
            *error = 1;
        return 0;
    }
    count = PyLong_AsLong(value);
    if (count == -1 && PyErr_Occurred())
        *error = 1;
    return count;
}

/* One (src, dst, send, recv, src_size, dst_size) edge row. */
static int
unpack_edge(PyObject *row, PyObject **src, PyObject **dst, double *send,
            double *recv, double *src_size, double *dst_size,
            int *src_sized, int *dst_sized)
{
    PyObject *item;

    if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "edge rows must be "
                        "(src, dst, send, recv, src_size, dst_size)");
        return -1;
    }
    *src = PyTuple_GET_ITEM(row, 0);
    *dst = PyTuple_GET_ITEM(row, 1);
    *send = PyFloat_AsDouble(PyTuple_GET_ITEM(row, 2));
    *recv = PyFloat_AsDouble(PyTuple_GET_ITEM(row, 3));
    item = PyTuple_GET_ITEM(row, 4);
    *src_sized = item != Py_None;
    *src_size = *src_sized ? PyFloat_AsDouble(item) : 0.0;
    item = PyTuple_GET_ITEM(row, 5);
    *dst_sized = item != Py_None;
    *dst_size = *dst_sized ? PyFloat_AsDouble(item) : 0.0;
    if (PyErr_Occurred())
        return -1;
    return 0;
}

static PyObject *
k_eq1_requirement(PyObject *self, PyObject *args)
{
    PyObject *edges, *inside;
    Py_ssize_t n_edges, e;
    double out = 0.0, into = 0.0;
    int error = 0;

    if (!PyArg_ParseTuple(args, "O!O!", &PyTuple_Type, &edges,
                          &PyDict_Type, &inside))
        return NULL;
    n_edges = PyTuple_GET_SIZE(edges);
    for (e = 0; e < n_edges; e++) {
        PyObject *src, *dst;
        double send, recv, src_size, dst_size, src_out, dst_out;
        int src_sized, dst_sized;
        long src_in, dst_in;

        if (unpack_edge(PyTuple_GET_ITEM(edges, e), &src, &dst, &send,
                        &recv, &src_size, &dst_size, &src_sized,
                        &dst_sized) < 0)
            return NULL;
        src_in = inside_count(inside, src, &error);
        dst_in = inside_count(inside, dst, &error);
        if (error)
            return NULL;
        src_out = src_sized ? src_size - (double)src_in : INFINITY;
        dst_out = dst_sized ? dst_size - (double)dst_in : INFINITY;
        if (src_in > 0 && dst_out > 0.0) {
            double lhs = (send == 0.0 || src_in == 0) ? 0.0
                                                      : (double)src_in * send;
            double rhs = (recv == 0.0 || dst_out == 0.0) ? 0.0
                                                         : dst_out * recv;
            out += (lhs < rhs) ? lhs : rhs;
        }
        if (src_out > 0.0 && dst_in > 0) {
            double lhs = (send == 0.0 || src_out == 0.0) ? 0.0
                                                         : src_out * send;
            double rhs = (recv == 0.0 || dst_in == 0) ? 0.0
                                                      : (double)dst_in * recv;
            into += (lhs < rhs) ? lhs : rhs;
        }
    }
    return Py_BuildValue("(dd)", out, into);
}

static PyObject *
k_voc_requirement(PyObject *self, PyObject *args)
{
    PyObject *trunk, *loops, *inside, *name, *value;
    Py_ssize_t n_edges, e, pos = 0;
    double send_inside = 0.0, recv_outside = 0.0;
    double send_outside = 0.0, recv_inside = 0.0;
    double hose = 0.0;
    int error = 0;

    if (!PyArg_ParseTuple(args, "O!O!O!", &PyTuple_Type, &trunk,
                          &PyDict_Type, &loops, &PyDict_Type, &inside))
        return NULL;
    n_edges = PyTuple_GET_SIZE(trunk);
    for (e = 0; e < n_edges; e++) {
        PyObject *src, *dst;
        double send, recv, src_size, dst_size, src_out, dst_out;
        int src_sized, dst_sized;
        long src_in, dst_in;

        if (unpack_edge(PyTuple_GET_ITEM(trunk, e), &src, &dst, &send,
                        &recv, &src_size, &dst_size, &src_sized,
                        &dst_sized) < 0)
            return NULL;
        src_in = inside_count(inside, src, &error);
        dst_in = inside_count(inside, dst, &error);
        if (error)
            return NULL;
        src_out = src_sized ? src_size - (double)src_in : INFINITY;
        dst_out = dst_sized ? dst_size - (double)dst_in : INFINITY;
        send_inside += (double)src_in * send;
        send_outside += (send == 0.0) ? 0.0 : src_out * send;
        recv_inside += (double)dst_in * recv;
        recv_outside += (recv == 0.0) ? 0.0 : dst_out * recv;
    }
    /* The hose term iterates ``inside`` in dict (insertion) order,
     * exactly like the Python for-loop over inside.items(). */
    while (PyDict_Next(inside, &pos, &name, &value)) {
        PyObject *loop = PyDict_GetItemWithError(loops, name);
        long count, size, spread;
        double send;

        if (loop == NULL) {
            if (PyErr_Occurred())
                return NULL;
            continue;
        }
        send = PyFloat_AsDouble(PyTuple_GET_ITEM(loop, 0));
        size = PyLong_AsLong(PyTuple_GET_ITEM(loop, 1));
        count = PyLong_AsLong(value);
        if (PyErr_Occurred())
            return NULL;
        spread = (count < size - count) ? count : size - count;
        hose += (double)spread * send;
    }
    {
        double out = ((send_inside < recv_outside) ? send_inside
                                                   : recv_outside) +
                     hose;
        double into = ((send_outside < recv_inside) ? send_outside
                                                    : recv_inside) +
                      hose;
        return Py_BuildValue("(dd)", out, into);
    }
}

/* ------------------------------------------------------------------ */

/* neighbors[vm].append((peer, bandwidth, outgoing)) */
static int
append_peer(PyObject *neighbors, PyObject *vm, PyObject *peer,
            PyObject *bandwidth, int outgoing)
{
    PyObject *peers = PyDict_GetItemWithError(neighbors, vm);
    if (peers == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, vm);
        return -1;
    }
    PyObject *triple = PyTuple_New(3);
    if (triple == NULL)
        return -1;
    Py_INCREF(peer);
    PyTuple_SET_ITEM(triple, 0, peer);
    Py_INCREF(bandwidth);
    PyTuple_SET_ITEM(triple, 1, bandwidth);
    PyObject *flag = outgoing ? Py_True : Py_False;
    Py_INCREF(flag);
    PyTuple_SET_ITEM(triple, 2, flag);
    int rc = PyList_Append(peers, triple);
    Py_DECREF(triple);
    return rc;
}

/* sums[slot] += bandwidth (one [out, in] demand list) */
static int
bump_slot(PyObject *sums, Py_ssize_t slot, double bandwidth)
{
    double prev = PyFloat_AsDouble(PyList_GET_ITEM(sums, slot));
    if (prev == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *updated = PyFloat_FromDouble(prev + bandwidth);
    if (updated == NULL)
        return -1;
    return PyList_SetItem(sums, slot, updated);
}

/* demand[vm][slot] += bandwidth (the [out, in] lists built below) */
static int
bump_demand(PyObject *demand, PyObject *vm, Py_ssize_t slot, double bandwidth)
{
    PyObject *sums = PyDict_GetItemWithError(demand, vm);
    if (sums == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, vm);
        return -1;
    }
    return bump_slot(sums, slot, bandwidth);
}

/* placed_peers(peers, vm_ids) -> (placed, hosted) */
static PyObject *
k_placed_peers(PyObject *self, PyObject *args)
{
    PyObject *peers, *vm_ids;
    if (!PyArg_ParseTuple(args, "O!O!", &PyList_Type, &peers,
                          &PyDict_Type, &vm_ids))
        return NULL;

    PyObject *placed = PyList_New(0);
    PyObject *hosted = PyDict_New();
    if (placed == NULL || hosted == NULL)
        goto fail;

    Py_ssize_t n = PyList_GET_SIZE(peers);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *row = PyList_GET_ITEM(peers, i);
        if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "placed_peers: peers rows must be (name, "
                            "bandwidth, outgoing) tuples");
            goto fail;
        }
        PyObject *server_id =
            PyDict_GetItemWithError(vm_ids, PyTuple_GET_ITEM(row, 0));
        if (server_id == NULL) {
            if (PyErr_Occurred())
                goto fail;
            continue;
        }
        /* hosted.setdefault(server_id, []).append(len(placed)) */
        PyObject *indices = PyDict_GetItemWithError(hosted, server_id);
        if (indices == NULL) {
            if (PyErr_Occurred())
                goto fail;
            indices = PyList_New(0);
            if (indices == NULL)
                goto fail;
            int rc = PyDict_SetItem(hosted, server_id, indices);
            Py_DECREF(indices);
            if (rc < 0)
                goto fail;
        }
        PyObject *index = PyLong_FromSsize_t(PyList_GET_SIZE(placed));
        if (index == NULL)
            goto fail;
        int rc = PyList_Append(indices, index);
        Py_DECREF(index);
        if (rc < 0)
            goto fail;
        PyObject *triple = PyTuple_New(3);
        if (triple == NULL)
            goto fail;
        Py_INCREF(server_id);
        PyTuple_SET_ITEM(triple, 0, server_id);
        PyObject *item = PyTuple_GET_ITEM(row, 1);
        Py_INCREF(item);
        PyTuple_SET_ITEM(triple, 1, item);
        item = PyTuple_GET_ITEM(row, 2);
        Py_INCREF(item);
        PyTuple_SET_ITEM(triple, 2, item);
        rc = PyList_Append(placed, triple);
        Py_DECREF(triple);
        if (rc < 0)
            goto fail;
    }
    return Py_BuildValue("(NN)", placed, hosted);

fail:
    Py_XDECREF(placed);
    Py_XDECREF(hosted);
    return NULL;
}

/* expand_edges(plans, vms) -> (neighbors, demand) */
static PyObject *
k_expand_edges(PyObject *self, PyObject *args)
{
    PyObject *plans, *vms;
    if (!PyArg_ParseTuple(args, "O!O!", &PyList_Type, &plans,
                          &PyTuple_Type, &vms))
        return NULL;

    PyObject *neighbors = PyDict_New();
    PyObject *demand = PyDict_New();
    if (neighbors == NULL || demand == NULL)
        goto fail;

    Py_ssize_t n_vms = PyTuple_GET_SIZE(vms);
    for (Py_ssize_t i = 0; i < n_vms; i++) {
        PyObject *vm = PyTuple_GET_ITEM(vms, i);
        PyObject *peers = PyList_New(0);
        if (peers == NULL)
            goto fail;
        int rc = PyDict_SetItem(neighbors, vm, peers);
        Py_DECREF(peers);
        if (rc < 0)
            goto fail;
        PyObject *sums = PyList_New(2);
        if (sums == NULL)
            goto fail;
        PyObject *zero_out = PyFloat_FromDouble(0.0);
        PyObject *zero_in = PyFloat_FromDouble(0.0);
        if (zero_out == NULL || zero_in == NULL) {
            Py_XDECREF(zero_out);
            Py_XDECREF(zero_in);
            Py_DECREF(sums);
            goto fail;
        }
        PyList_SET_ITEM(sums, 0, zero_out);
        PyList_SET_ITEM(sums, 1, zero_in);
        rc = PyDict_SetItem(demand, vm, sums);
        Py_DECREF(sums);
        if (rc < 0)
            goto fail;
    }

    Py_ssize_t n_plans = PyList_GET_SIZE(plans);
    for (Py_ssize_t p = 0; p < n_plans; p++) {
        PyObject *plan = PyList_GET_ITEM(plans, p);
        if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 4) {
            PyErr_SetString(PyExc_TypeError,
                            "expand_edges: plan rows must be (src_tier, "
                            "dst_tier, per_pair, self_loop) tuples");
            goto fail;
        }
        PyObject *src_tier = PyTuple_GET_ITEM(plan, 0);
        PyObject *dst_tier = PyTuple_GET_ITEM(plan, 1);
        PyObject *per_pair = PyTuple_GET_ITEM(plan, 2);
        if (!PyList_Check(src_tier) || !PyList_Check(dst_tier)) {
            PyErr_SetString(PyExc_TypeError,
                            "expand_edges: tier rows must be name lists");
            goto fail;
        }
        int self_loop = PyObject_IsTrue(PyTuple_GET_ITEM(plan, 3));
        if (self_loop < 0)
            goto fail;
        double amount = PyFloat_AsDouble(per_pair);
        if (amount == -1.0 && PyErr_Occurred())
            goto fail;
        Py_ssize_t n_src = PyList_GET_SIZE(src_tier);
        Py_ssize_t n_dst = PyList_GET_SIZE(dst_tier);
        for (Py_ssize_t i = 0; i < n_src; i++) {
            PyObject *src = PyList_GET_ITEM(src_tier, i);
            /* The source-side peer list and demand sums stay fixed
             * across the inner loop; hoist both dict lookups. */
            PyObject *src_peers = PyDict_GetItemWithError(neighbors, src);
            PyObject *src_sums = PyDict_GetItemWithError(demand, src);
            if (src_peers == NULL || src_sums == NULL) {
                if (!PyErr_Occurred())
                    PyErr_SetObject(PyExc_KeyError, src);
                goto fail;
            }
            for (Py_ssize_t j = 0; j < n_dst; j++) {
                if (self_loop && i == j)
                    continue;
                PyObject *dst = PyList_GET_ITEM(dst_tier, j);
                PyObject *triple = PyTuple_New(3);
                if (triple == NULL)
                    goto fail;
                Py_INCREF(dst);
                PyTuple_SET_ITEM(triple, 0, dst);
                Py_INCREF(per_pair);
                PyTuple_SET_ITEM(triple, 1, per_pair);
                Py_INCREF(Py_True);
                PyTuple_SET_ITEM(triple, 2, Py_True);
                int rc = PyList_Append(src_peers, triple);
                Py_DECREF(triple);
                if (rc == 0)
                    rc = append_peer(neighbors, dst, src, per_pair, 0);
                if (rc == 0)
                    rc = bump_slot(src_sums, 0, amount);
                if (rc == 0)
                    rc = bump_demand(demand, dst, 1, amount);
                if (rc < 0)
                    goto fail;
            }
        }
    }
    return Py_BuildValue("(NN)", neighbors, demand);

fail:
    Py_XDECREF(neighbors);
    Py_XDECREF(demand);
    return NULL;
}

/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"ledger_adjust", (PyCFunction)(void (*)(void))k_ledger_adjust,
     METH_FASTCALL,
     "Fused classic-ledger uplink adjust (see pyref.ledger_adjust)."},
    {"temporal_adjust", (PyCFunction)(void (*)(void))k_temporal_adjust,
     METH_FASTCALL,
     "Fused W-plane column adjust (see pyref.temporal_adjust)."},
    {"path_link_ids", k_path_link_ids, METH_VARARGS,
     "LCA path-link walk (see pyref.path_link_ids)."},
    {"expand_edges", k_expand_edges, METH_VARARGS,
     "Per-VM peer/demand expansion of a pipe model "
     "(see pyref.expand_edges)."},
    {"placed_peers", k_placed_peers, METH_VARARGS,
     "Placed-peer filter + hosted index map (see pyref.placed_peers)."},
    {"rack_order", k_rack_order, METH_VARARGS,
     "Stable rack ordering by pipe cost (see pyref.rack_order)."},
    {"pipes_feasible", k_pipes_feasible, METH_VARARGS,
     "Fused pipe path feasibility check (see pyref.pipes_feasible)."},
    {"commit_pipes", k_commit_pipes, METH_VARARGS,
     "Grouped per-VM pipe commit (see pyref.commit_pipes)."},
    {"eq1_requirement", k_eq1_requirement, METH_VARARGS,
     "Flattened-edge Eq. 1 evaluation (see pyref.eq1_requirement)."},
    {"voc_requirement", k_voc_requirement, METH_VARARGS,
     "Flattened-edge VOC evaluation (see pyref.voc_requirement)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro._kernels._ckernels",
    "Compiled placement kernels (bit-exact twins of repro._kernels.pyref).",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    return PyModule_Create(&kernel_module);
}
