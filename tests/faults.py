"""Fault injection the package has no entry point for."""

from fvss.provider import StoredRecord

from .oracles import get_record, record_sig


def report_null(wh, i, table, pk, attr):
    """Make CSP i hold attr of pk as NULL: in its stored record, and so in
    its null_pks answer, with its signature tree kept in step. Returns the
    record it replaced, for restore_record."""
    csp = wh.csps[i]
    pos = csp.position_of(table, pk)
    rec = get_record(csp, table, pos)
    lie = StoredRecord(pk, rec.plain, {**rec.shares, attr: None})
    schema = wh.schemas[table]
    csp.update_shared_record(schema, pos, lie, record_sig(wh, i, schema, lie))
    return rec


def restore_record(wh, i, table, rec):
    csp = wh.csps[i]
    csp.update_shared_record(wh.schemas[table], csp.position_of(table, rec.pk), rec,
                             record_sig(wh, i, wh.schemas[table], rec))


def drop_record(wh, i, table, pk):
    """Make CSP i's slice of table lack pk, as if it had never held it."""
    csp, schema = wh.csps[i], wh.schemas[table]
    pks, values = csp.slice_values(schema)
    k = pks.index(pk)
    csp._set_slice(schema, pks[:k] + pks[k + 1:], [vals[:k] + vals[k + 1:] for vals in values])
